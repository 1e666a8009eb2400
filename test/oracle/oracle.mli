(** Slow, obviously-correct baselines kept out of [lib/]: used by the
    property tests and by the bench as the pre-optimization reference. *)

val allocate_reference :
  Netsim.Link.capacities -> Netsim.Fairshare.route list -> (int * float) list
(** The original O(flows * links)-per-round list implementation of
    [Netsim.Fairshare.allocate]: same contract (including
    [Invalid_argument] on duplicate flow ids), same fixed point within
    numerical tolerance. *)

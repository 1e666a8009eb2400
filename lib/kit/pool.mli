(** Fork/join worker pool over OCaml 5 domains.

    Its one production user is [Scenarios.Chaos.sweep], which runs one
    whole scenario per work item. Everything finer-grained (SPF batches,
    water-fill) is sequential: those batches are too small to amortize
    a domain spawn.

    A pool is a concurrency budget, not a set of live threads: every
    [iter]/[map] call spawns up to [domains - 1] helper domains, has the
    calling domain participate too, and joins all helpers before
    returning. Work items are claimed from a shared atomic cursor in
    chunks (one fetch-and-add per ~[n / (domains * 8)] items), so uneven
    per-item cost balances automatically while small batches pay almost
    no atomic contention.

    The body [f] runs concurrently with itself on different indices. It
    must only touch shared state that is safe under that: read-only
    structures built before the call, writes to disjoint slots of a
    pre-allocated array, or [Atomic]/domain-safe cells (the {!Obs}
    registry qualifies). *)

type t

val create : ?domains:int -> unit -> t
(** [create ()] sizes the pool to {!default_domain_count}. [domains]
    overrides it; values below 1 are clamped to 1 (purely
    sequential). *)

val domain_count : t -> int

val default_domain_count : unit -> int
(** The width [create] uses when [?domains] is absent: the
    {!set_default_domains} override if set, else 1. *)

val set_default_domains : int option -> unit
(** Process-wide default width override, for harnesses that reach pools
    only indirectly: every pool subsequently created without an explicit
    [?domains] gets this width. [Some d] clamps [d] to at least 1;
    [None] restores the default of 1. Existing pools are unaffected. *)

val iter : t -> n:int -> (int -> unit) -> unit
(** [iter t ~n f] runs [f i] for every [i] in [0, n), fanned across the
    pool's domains. Returns once every index has been claimed and all
    helper domains have been joined.

    Partial progress on exception: if any call to [f] raises, the first
    captured exception is re-raised on the caller after all helpers are
    joined. Other participants stop at their next chunk boundary, so an
    arbitrary subset of the remaining indices — including indices after
    the raising one — may or may not have been processed. Callers that
    need all-or-nothing semantics must build into fresh storage and
    publish only on normal return. *)

val map : t -> n:int -> (int -> 'a) -> 'a array
(** [map t ~n f] is [iter] collecting results: element [i] of the
    returned array is [f i], so callers need not hand-roll a result
    array around [iter]. The same partial-progress contract applies: if
    any [f i] raises, the array under construction is abandoned and the
    first exception is re-raised — no partially-filled result escapes. *)

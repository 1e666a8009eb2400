(* Shared machinery of the benchmark: the wall clock, per-round
   recording of operation latencies and counters, span aggregation for
   the traced run, and percentiles.

   Every timer here reads the monotonic wall clock. [Obs.Clock] is not
   used for measurement: by default it is CPU time, and [Scenarios.Chaos]
   rebinds it to simulated time while telemetry is on. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Per span name, accumulated over the traced ops of a round. Self time
   and self allocation exclude the span's children. *)
type span_acc = {
  mutable calls : int;
  mutable total_ms : float;
  mutable self_ms : float;
  mutable self_words : float;
}

type round = {
  mutable setup_s : float;
  mutable round_s : float;  (** Wall time of the whole round, set-up included. *)
  mutable op_ms : float list;
  mutable reaction_ms : float list;
  mutable attempted : int;
  mutable failed : int;
  mutable op_failed : bool;
  mutable problems : string list;
  mutable delivered : float;  (** Stream bytes delivered, summed over steps. *)
  mutable demanded : float;  (** Stream bytes demanded, summed over steps. *)
  mutable alloc_words : float;  (** Words allocated inside op timers. *)
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable live_words : int;  (** Live heap when the round's ops are done. *)
  counters : (string, float) Hashtbl.t;
      (** Work counts of the round. Rounds replay identical inputs, so
          these must repeat exactly from round to round and run to run. *)
  spans : (string, span_acc) Hashtbl.t;
  mutable dropped_spans : int;
}

let new_round () =
  {
    setup_s = 0.;
    round_s = 0.;
    op_ms = [];
    reaction_ms = [];
    attempted = 0;
    failed = 0;
    op_failed = false;
    problems = [];
    delivered = 0.;
    demanded = 0.;
    alloc_words = 0.;
    minor_gcs = 0;
    major_gcs = 0;
    live_words = 0;
    counters = Hashtbl.create 32;
    spans = Hashtbl.create 16;
    dropped_spans = 0;
  }

let count r name v =
  Hashtbl.replace r.counters name
    (v +. Option.value (Hashtbl.find_opt r.counters name) ~default:0.)

let peak r name v =
  match Hashtbl.find_opt r.counters name with
  | Some old when old >= v -> ()
  | Some _ | None -> Hashtbl.replace r.counters name v

let counter r name = Option.value (Hashtbl.find_opt r.counters name) ~default:0.

(* A failed check marks the op that was last timed as failed (at most
   once per op); checks made after a round's last op land on that op.
   The message is only formatted when the check fails. *)
let check r ok fmt =
  let fail msg =
    if not r.op_failed then begin
      r.op_failed <- true;
      r.failed <- r.failed + 1
    end;
    if List.length r.problems < 20 then r.problems <- msg :: r.problems
  in
  if ok then Printf.ifprintf () fmt else Printf.ksprintf fail fmt

let float_attr name (s : Obs.Trace.span) =
  match List.assoc_opt name s.attrs with
  | Some (Obs.Attr.Float f) -> f
  | Some (Obs.Attr.Int i) -> float_of_int i
  | Some _ | None -> 0.

(* Fold the spans completed during one op into the round's per-name
   table: self = own duration (or words) minus the children's. *)
let absorb_spans r =
  let spans = Obs.Trace.spans () in
  r.dropped_spans <- r.dropped_spans + Obs.Trace.dropped ();
  let children = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      match s.parent with
      | None -> ()
      | Some p ->
        let d, w = Option.value (Hashtbl.find_opt children p) ~default:(0., 0.) in
        Hashtbl.replace children p
          (d +. (s.end_time -. s.start_time), w +. float_attr "alloc_words" s))
    spans;
  List.iter
    (fun (s : Obs.Trace.span) ->
      let dur = s.end_time -. s.start_time in
      let cd, cw = Option.value (Hashtbl.find_opt children s.seq) ~default:(0., 0.) in
      let acc =
        match Hashtbl.find_opt r.spans s.name with
        | Some a -> a
        | None ->
          let a = { calls = 0; total_ms = 0.; self_ms = 0.; self_words = 0. } in
          Hashtbl.replace r.spans s.name a;
          a
      in
      acc.calls <- acc.calls + 1;
      acc.total_ms <- acc.total_ms +. (dur *. 1000.);
      acc.self_ms <- acc.self_ms +. ((dur -. cd) *. 1000.);
      acc.self_words <- acc.self_words +. (float_attr "alloc_words" s -. cw))
    spans;
  Obs.Trace.reset ()

(* One unit operation: timed on the wall clock, with GC deltas taken
   outside the timer. With tracing on, the spans it produced are folded
   into the round after the timer stops. *)
let op r f =
  r.attempted <- r.attempted + 1;
  r.op_failed <- false;
  let tracing = Obs.enabled () in
  if tracing then Obs.Trace.reset ();
  let g0 = Obs.Prof.snapshot () in
  let t0 = now () in
  let outcome = match f () with () -> None | exception e -> Some e in
  let t1 = now () in
  let g = Obs.Prof.delta ~before:g0 ~after:(Obs.Prof.snapshot ()) in
  r.op_ms <- ((t1 -. t0) *. 1000.) :: r.op_ms;
  r.alloc_words <- r.alloc_words +. Obs.Prof.allocated_words g;
  r.minor_gcs <- r.minor_gcs + g.minor_collections;
  r.major_gcs <- r.major_gcs + g.major_collections;
  if tracing then absorb_spans r;
  match outcome with
  | None -> ()
  | Some e -> check r false "op raised %s" (Printexc.to_string e)

(* The live heap once a round's ops are done, while its state is still
   reachable ([state] is kept alive through the collection). Taken after
   a full major collection, so it is the same for the same inputs; the
   major heap's own size ([top_heap_words]) swings with GC timing when
   the SPF pool runs worker domains. *)
let measure_live r state =
  Gc.full_major ();
  r.live_words <- (Gc.quick_stat ()).live_words;
  ignore (Sys.opaque_identity state)

(* SPF engine and flooding work since [spf0] was read (end of set-up). *)
let igp_counts r net ~(spf0 : Igp.Spf_engine.stats) =
  let s = Igp.Spf_engine.stats (Igp.Network.engine net) in
  let delta name now before = count r name (float_of_int (now - before)) in
  delta "spf.runs" s.spf_runs spf0.spf_runs;
  delta "spf.syncs" s.syncs spf0.syncs;
  delta "spf.full_invalidations" s.full_invalidations spf0.full_invalidations;
  delta "spf.routers_dirtied" s.routers_dirtied spf0.routers_dirtied;
  delta "spf.routers_kept" s.routers_kept spf0.routers_kept;
  let cost = Igp.Network.control_cost net in
  count r "flooding.messages" (float_of_int cost.messages);
  count r "flooding.rounds" (float_of_int cost.rounds)

(* Mean FIB-trie aggregation over every router. Forces the tries, so it
   runs only in the traced phase, after the round's counters are read. *)
let fib_counts r net =
  let engine = Igp.Network.engine net in
  let routers = Igp.Network.routers net in
  let n = float_of_int (List.length routers) in
  List.iter
    (fun router ->
      let s = Igp.Spf_engine.aggregation engine ~router in
      count r "fib.aggregation_ratio" (s.ratio /. n);
      count r "fib.trie_kb" (float_of_int s.approx_bytes /. 1024. /. n))
    routers

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Nearest-rank percentile. *)
let percentile samples p =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median l = percentile l 0.5

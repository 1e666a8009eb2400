(* The metrics the benchmark reports, computed from the rounds of a run.
   End-to-end metrics come from untraced rounds; per-layer metrics from
   traced rounds, except the GC counts, which describe the program
   untraced. Per-layer times are ms per op (they add up to the op time),
   counts are per round (a round replays one fixed input set, so counts
   repeat exactly). *)

open Harness

type metric = { name : string; unit : string; value : float }

let sum f rounds = List.fold_left (fun acc r -> acc +. f r) 0. rounds

let ratio a b = if b = 0. then 0. else a /. b

let mib words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* Consecutive rounds grouped so that each group holds at least 100
   samples, so at least ten lie beyond its p90 (a short tail joins the
   group before it). A host that slows down for part of a run spoils
   only some groups, and the median over groups passes them over. *)
let groups samples rounds =
  let n g = List.length (List.concat_map samples g) in
  let rec go acc cur = function
    | [] -> (
      match (cur, acc) with
      | [], _ -> acc
      | _, last :: rest when n cur < 100 -> (last @ cur) :: rest
      | _ -> cur :: acc)
    | r :: rest ->
      let cur = cur @ [ r ] in
      if n cur >= 100 then go (cur :: acc) [] rest else go acc cur rest
  in
  List.rev (go [] [] rounds)

(* Median over groups of the percentile [p] of each group's samples. *)
let grouped_percentile samples rounds p =
  median (List.map (fun g -> percentile (List.concat_map samples g) p) (groups samples rounds))

let end_to_end rounds =
  let ops r = r.op_ms and reactions r = r.reaction_ms in
  [
    { name = "setup_s"; unit = "s"; value = median (List.map (fun r -> r.setup_s) rounds) };
    { name = "op_p50_ms"; unit = "ms"; value = grouped_percentile ops rounds 0.5 };
    { name = "op_p90_ms"; unit = "ms"; value = grouped_percentile ops rounds 0.9 };
    (* Over the rounds' wall time after set-up: ops, checks and the
       closing live-heap collection. *)
    {
      name = "ops_per_s";
      unit = "1/s";
      value =
        median
          (List.map
             (fun g ->
               float_of_int (List.length (List.concat_map ops g))
               /. sum (fun r -> r.round_s -. r.setup_s) g)
             (groups ops rounds));
    };
    {
      name = "peak_heap_mb";
      unit = "MiB";
      value = median (List.map (fun r -> mib r.live_words) rounds);
    };
    {
      name = "delivered_ratio";
      unit = "ratio";
      value = sum (fun r -> r.delivered) rounds /. sum (fun r -> r.demanded) rounds;
    };
    { name = "reaction_p50_ms"; unit = "ms"; value = grouped_percentile reactions rounds 0.5 };
    { name = "reaction_p90_ms"; unit = "ms"; value = grouped_percentile reactions rounds 0.9 };
  ]

(* Span name -> layer: the part before the first dot. *)
let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let span_sum rounds f pred =
  sum
    (fun r -> Hashtbl.fold (fun name a acc -> if pred name then acc +. f a else acc) r.spans 0.)
    rounds

let per_layer ~untraced ~traced =
  let ops = sum (fun r -> float_of_int r.attempted) traced in
  let n = float_of_int (List.length traced) in
  let per_op f pred = span_sum traced f pred /. ops in
  let total_ms name = per_op (fun a -> a.total_ms) (String.equal name) in
  let calls name = span_sum traced (fun a -> float_of_int a.calls) (String.equal name) /. n in
  let self_ms layer = per_op (fun a -> a.self_ms) (fun s -> layer_of s = layer) in
  let words layer = per_op (fun a -> a.self_words) (fun s -> layer_of s = layer) in
  let per_round key = sum (fun r -> counter r key) traced /. n in
  let ms name value = { name; unit = "ms"; value } in
  let c name value = { name; unit = "count"; value } in
  let w name value = { name; unit = "words"; value } in
  let x name value = { name; unit = "ratio"; value } in
  let counts keys = List.map (fun k -> c k (per_round k)) keys in
  let op_mean rounds =
    sum (fun r -> List.fold_left ( +. ) 0. r.op_ms) rounds
    /. sum (fun r -> float_of_int r.attempted) rounds
  in
  let u_ops = sum (fun r -> float_of_int r.attempted) untraced in
  let u_n = float_of_int (List.length untraced) in
  [
    ms "sim.step_ms" (total_ms "sim.step");
    ms "sim.self_ms" (self_ms "sim");
    w "sim.alloc_words" (words "sim");
    c "sim.classes_mean" (per_round "sim.classes_mean");
    c "sim.flows_active_mean" (per_round "sim.flows_active_mean");
    w "gc.alloc_words_per_op" (sum (fun r -> r.alloc_words) untraced /. u_ops);
    c "gc.minor_collections" (sum (fun r -> float_of_int r.minor_gcs) untraced /. u_n);
    c "gc.major_collections" (sum (fun r -> float_of_int r.major_gcs) untraced /. u_n);
    { name = "gc.top_heap_mb"; unit = "MiB"; value = mib (Gc.quick_stat ()).top_heap_words };
    ms "fairshare.water_fill_ms" (total_ms "fairshare.water_fill");
    c "fairshare.calls" (calls "fairshare.water_fill");
    w "fairshare.alloc_words" (words "fairshare");
    ms "controller.react_ms" (total_ms "controller.react");
    ms "controller.revalidate_ms" (total_ms "controller.revalidate");
    ms "controller.self_ms" (self_ms "controller");
    w "controller.alloc_words" (words "controller");
  ]
  @ counts
      [
        "controller.react_calls";
        "controller.alarm_calls";
        "controller.steers";
        "controller.rejected";
      ]
  @ [
      x "controller.steer_ratio"
        (let steers = per_round "controller.steers" in
         ratio steers
           (steers +. per_round "controller.rejected" +. per_round "controller.compile_failed"));
    ]
  @ counts
      [
        "controller.revalidate_calls";
        "controller.fakes_peak";
        "monitor.polls";
        "monitor.alarms_raised";
        "monitor.alarms_cleared";
        "watchdog.steps_checked";
        "watchdog.sweeps";
      ]
  @ [
      x "watchdog.sweep_ratio"
        (ratio (per_round "watchdog.sweeps") (per_round "watchdog.steps_checked"));
    ]
  @ counts [ "watchdog.violations"; "watchdog.quarantines" ]
  @ [
      ms "spf.warm_ms" (total_ms "spf.warm");
      ms "spf.recompute_ms" (total_ms "spf.recompute");
      ms "spf.self_ms" (self_ms "spf");
      w "spf.alloc_words" (words "spf");
    ]
  @ counts [ "spf.runs"; "spf.syncs"; "spf.full_invalidations"; "spf.routers_dirtied" ]
  @ [
      x "spf.kept_ratio"
        (let kept = per_round "spf.routers_kept" in
         ratio kept (kept +. per_round "spf.routers_dirtied"));
      ms "lsdb.inject_ms" (total_ms "lsdb.inject");
      ms "lsdb.retract_ms" (total_ms "lsdb.retract");
      w "lsdb.alloc_words" (words "lsdb");
    ]
  @ counts [ "flooding.messages"; "flooding.rounds" ]
  @ [
      ms "fib.lpm_ms" (total_ms "fib.lpm");
      c "fib.lpm_calls" (per_round "fib.lpm_calls");
      w "fib.alloc_words" (words "fib");
      x "fib.aggregation_ratio" (per_round "fib.aggregation_ratio");
      { name = "fib.trie_kb"; unit = "KiB"; value = per_round "fib.trie_kb" };
      { name = "trace.overhead_pct"; unit = "%"; value = 100. *. ((op_mean traced /. op_mean untraced) -. 1.) };
      x "trace.accounted_ratio"
        (span_sum traced (fun a -> a.self_ms) (fun _ -> true)
         /. sum (fun r -> List.fold_left ( +. ) 0. r.op_ms) traced);
      c "trace.spans_per_op" (span_sum traced (fun a -> float_of_int a.calls) (fun _ -> true) /. ops);
    ]

(* The per-span table of the traced rounds, per op, for reading. *)
let pp_spans fmt traced =
  let ops = sum (fun r -> float_of_int r.attempted) traced in
  let n = float_of_int (List.length traced) in
  let names =
    List.concat_map (fun r -> Hashtbl.fold (fun k _ acc -> k :: acc) r.spans []) traced
    |> List.sort_uniq compare
  in
  Format.fprintf fmt "%-24s %12s %12s %12s %14s@." "span" "calls/round" "total ms/op"
    "self ms/op" "self words/op";
  List.iter
    (fun name ->
      let f g = span_sum traced g (String.equal name) in
      Format.fprintf fmt "%-24s %12.1f %12.4f %12.4f %14.0f@." name
        (f (fun a -> float_of_int a.calls) /. n)
        (f (fun a -> a.total_ms) /. ops)
        (f (fun a -> a.self_ms) /. ops)
        (f (fun a -> a.self_words) /. ops))
    names

let json_number v = Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit)
          metrics))

(* End-to-end benchmark of the Fibbing reproduction. See README.md.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --smoke BENCHMARK.json

   A run repeats whole rounds (set-up plus a fixed op sequence generated
   from the seed) for about S seconds and prints one JSON result as its
   last line of stdout. With --trace 1 it spends half the time untraced
   and half traced, and reports per-layer metrics. --smoke runs every
   workload at a tiny scale and checks what every run must satisfy.

   Every pool in the process runs at width 1, not at the program's
   default (the CPU count): with both vCPUs of a small shared host busy,
   any neighbour's load stalls the domain that shares its vCPU, and the
   other waits for it at every fork/join and stop-the-world collection.
   A fixed width also keeps results comparable between hosts with
   different CPU counts. *)

open Harness

type workload = {
  name : string;
  round : smoke:bool -> warm_in_hook:bool -> seed:int -> round -> Igp.Network.t option;
}

let workloads =
  [
    {
      name = "flash-crowd";
      round =
        (fun ~smoke ~warm_in_hook ~seed r ->
          Some
            (Flash_crowd.round ~warm_in_hook
               (if smoke then Flash_crowd.smoke else Flash_crowd.full)
               ~seed r));
    };
    {
      name = "geant-cdn";
      round =
        (fun ~smoke ~warm_in_hook ~seed r ->
          Some
            (Geant_cdn.round ~warm_in_hook (if smoke then Geant_cdn.smoke else Geant_cdn.full) ~seed r));
    };
    {
      name = "lie-churn";
      round =
        (fun ~smoke ~warm_in_hook:_ ~seed r ->
          Some (Lie_churn.round (if smoke then Lie_churn.smoke else Lie_churn.full) ~seed r));
    };
    (* Not listed in BENCHMARK.json: a few chaos seeds in every full run
       end in a watchdog violation (README.md), so its runs fail. *)
    {
      name = "chaos-sweep";
      round =
        (fun ~smoke ~warm_in_hook:_ ~seed r ->
          Chaos_sweep.round (if smoke then Chaos_sweep.smoke else Chaos_sweep.full) ~seed r;
          None);
    };
  ]

(* Enough samples that at least ten lie beyond p90. *)
let min_ops ~smoke = if smoke then 1 else 100

(* Whole rounds until the next one would overrun [seconds], at least
   two. Round [i] draws its inputs from its own seed, so one run covers
   several input sets; a replay of round [i] (the traced phase, or a
   second run with the same seed) must repeat its counters exactly. *)
let phase w ~smoke ~seed ~seconds =
  let start = now () in
  let rec go acc ~last =
    let ops = List.fold_left (fun n (r : round) -> n + r.attempted) 0 acc in
    if List.length acc >= 2 && ops >= min_ops ~smoke && now () -. start +. last > seconds then
      List.rev acc
    else begin
      (* Each round starts from a collected heap: the ops of one round
         do not pay for collecting the garbage of the previous one. *)
      Gc.full_major ();
      let r = new_round () in
      let round_seed = (seed * 1_000) + List.length acc in
      let net, elapsed = timed (fun () -> w.round ~smoke ~warm_in_hook:true ~seed:round_seed r) in
      r.round_s <- elapsed;
      if Obs.enabled () then Option.iter (fib_counts r) net;
      go (r :: acc) ~last:elapsed
    end
  in
  go [] ~last:0.

(* The counters, and the delivered and demanded totals, on which [r]
   differs from [reference]; empty when they all match. *)
let differing ~reference r =
  let show = Printf.sprintf "%g" in
  let field name v v' = if v = v' then [] else [ Printf.sprintf "%s: %g vs %g" name v v' ] in
  Hashtbl.fold
    (fun key v acc ->
      match Hashtbl.find_opt r.counters key with
      | Some v' when v' = v -> acc
      | other ->
        Printf.sprintf "%s: %g vs %s" key v (Option.fold ~none:"missing" ~some:show other) :: acc)
    reference.counters
    (field "delivered" reference.delivered r.delivered
    @ field "demanded" reference.demanded r.demanded)

(* Rounds of [replays] must repeat the counters of the [references]
   round with the same index; a mismatch fails the replay's last op. *)
let check_replays ~label ~references replays =
  List.iteri
    (fun i r ->
      match List.nth_opt references i with
      | None -> ()
      | Some reference ->
        match differing ~reference r with
        | [] -> ()
        | diffs ->
          check r false "%s: round %d counters differ (%s)" label i (String.concat ", " diffs))
    replays

let traced f =
  Obs.reset ();
  Obs.Trace.set_capacity 65_536;
  Obs.Clock.set_source now;
  Obs.enable ();
  Obs.Prof.enable ();
  Fun.protect f ~finally:(fun () ->
      Obs.Prof.disable ();
      Obs.disable ();
      Obs.Clock.use_cpu_time ())

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Report.metric list;
  problems : string list;
  op_samples : int;
  reaction_samples : int;
  traced_rounds : round list;
}

let run w ~smoke ~seed ~seconds ~trace =
  let untraced = phase w ~smoke ~seed ~seconds:(if trace then seconds /. 2. else seconds) in
  let traced_rounds =
    if not trace then []
    else begin
      let rounds = traced (fun () -> phase w ~smoke ~seed ~seconds:(seconds /. 2.)) in
      check_replays ~label:"traced vs untraced" ~references:untraced rounds;
      List.iter (fun r -> check r (r.dropped_spans = 0) "trace ring dropped spans") rounds;
      rounds
    end
  in
  let rounds = untraced @ traced_rounds in
  let metrics =
    if trace then Report.per_layer ~untraced ~traced:traced_rounds
    else Report.end_to_end untraced
  in
  let finite = List.for_all (fun (m : Report.metric) -> Float.is_finite m.value) metrics in
  let attempted = List.fold_left (fun n (r : round) -> n + r.attempted) 0 rounds in
  let failed = List.fold_left (fun n (r : round) -> n + r.failed) 0 rounds in
  let problems =
    (if finite then [] else [ "a metric is not finite" ])
    @ List.concat_map (fun (r : round) -> List.rev r.problems) rounds
  in
  {
    correct = failed = 0 && finite;
    attempted;
    failed;
    metrics = List.map (fun (m : Report.metric) -> if Float.is_finite m.value then m else { m with value = 0. }) metrics;
    problems;
    op_samples = List.length (List.concat_map (fun (r : round) -> r.op_ms) untraced);
    reaction_samples = List.length (List.concat_map (fun (r : round) -> r.reaction_ms) untraced);
    traced_rounds;
  }

let context w ~seed o =
  Printf.sprintf
    "{\"context\": {\"workload\": %S, \"seed\": %d, \"op_samples\": %d, \
     \"reaction_samples\": %d, \"pool_width\": %d, \"nproc\": %d, \"ocaml\": %S}}"
    w.name seed o.op_samples o.reaction_samples
    (Kit.Pool.default_domain_count ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version

(* --smoke: every workload at a tiny scale. Each metric BENCHMARK.json
   names must be emitted (and nothing it does not name), finite and with
   a unit; no op may fail; two runs with the same seed, and the traced
   and untraced runs, must give identical counters; and the warm inside
   the reaction hook must move SPF work without adding any. *)
let smoke spec =
  let names key =
    match Kit.Json.member key spec with
    | Some (Kit.Json.List items) ->
      List.filter_map (fun m -> Option.bind (Kit.Json.member "name" m) Kit.Json.to_str) items
    | _ -> []
  in
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun s -> ok := false; prerr_endline ("smoke: " ^ s)) fmt in
  List.iter
    (fun n ->
      if not (List.exists (fun w -> w.name = n) workloads) then fail "unknown workload %s" n)
    (names "workloads");
  List.iter
    (fun w ->
      List.iter
        (fun (trace, key) ->
          let o = run w ~smoke:true ~seed:1 ~seconds:0. ~trace in
          if o.failed > 0 || not o.correct then
            fail "%s: %d of %d ops failed: %s" w.name o.failed o.attempted
              (String.concat "; " o.problems);
          let emitted = List.map (fun (m : Report.metric) -> m.name) o.metrics in
          let expected = names key in
          List.iter
            (fun (m : Report.metric) ->
              if m.unit = "" then fail "%s: %s has no unit" w.name m.name;
              if not (List.mem m.name expected) then fail "%s: %s not in %s" w.name m.name key)
            o.metrics;
          List.iter
            (fun n -> if not (List.mem n emitted) then fail "%s: %s not emitted" w.name n)
            expected)
        [ (false, "end_to_end"); (true, "per_layer") ];
      let first = phase w ~smoke:true ~seed:1 ~seconds:0. in
      let again = phase w ~smoke:true ~seed:1 ~seconds:0. in
      check_replays ~label:"same seed" ~references:first again;
      List.iter (fun (r : round) -> List.iter (fail "%s: %s" w.name) r.problems) again;
      if w.name = "flash-crowd" || w.name = "geant-cdn" then begin
        let spf_runs warm_in_hook =
          let r = new_round () in
          ignore (w.round ~smoke:true ~warm_in_hook ~seed:1 r);
          counter r "spf.runs"
        in
        let with_warm = spf_runs true and without = spf_runs false in
        if with_warm <> without then
          fail "%s: spf.runs %g with the warm in the reaction hook, %g without" w.name with_warm
            without
      end;
      Printf.printf "smoke %s: %s\n%!" w.name (if !ok then "ok" else "FAILED"))
    workloads;
  if not !ok then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let smoke_spec = ref "" and smoke_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke_mode, " tiny-scale self-check of every workload");
    ]
    (fun file -> smoke_spec := file)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 | --smoke BENCHMARK.json";
  Kit.Pool.set_default_domains (Some 1);
  if !smoke_mode then
    smoke (Kit.Json.parse_exn (In_channel.with_open_bin !smoke_spec In_channel.input_all))
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
    | Some w ->
      let o = run w ~smoke:false ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
      List.iter (fun p -> prerr_endline ("problem: " ^ p)) o.problems;
      if o.traced_rounds <> [] then Format.printf "%a%!" Report.pp_spans o.traced_rounds;
      print_endline (context w ~seed:!seed o);
      print_endline
        (Report.result_line ~correct:o.correct ~attempted:o.attempted ~failed:o.failed o.metrics);
      if not o.correct then exit 1

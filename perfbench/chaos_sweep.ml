(* chaos-sweep: [Scenarios.Chaos.sweep] over blocks of consecutive seeds
   with the watchdog on, one block per op. The only workload that drives
   [Netsim.Faults] (flaps, crashes, partitions, lossy and jittered
   flooding, controller crash/restart/quarantine) and the [Kit.Pool]
   sweep. Each seed is small (a few ms), so per-run set-up and pool
   fork/join weigh as much as the simulation itself. *)

open Harness

type scale = { blocks : int; block_size : int; until : float }

let full = { blocks = 16; block_size = 8; until = 30. }

let smoke = { blocks = 2; block_size = 2; until = 16. }

(* Rounds never share chaos seeds: the round with seed [s] sweeps
   [s * 100_000 ...]. *)
let round scale ~seed r =
  let base = seed * 100_000 in
  let (pool, blocks), setup_s =
    timed (fun () ->
        let pool = Kit.Pool.create () in
        let blocks =
          Array.init scale.blocks (fun b ->
              List.init scale.block_size (fun i -> base + (b * scale.block_size) + i))
        in
        (* First touch of the scenario code, pool and heap, outside the
           ops, on a seed no block uses. *)
        ignore
          (Scenarios.Chaos.sweep ~pool ~watchdog:true
             ~seeds:[ base + (scale.blocks * scale.block_size) ]
             ~until:scale.until ());
        (pool, blocks))
  in
  r.setup_s <- setup_s;
  Array.iter
    (fun seeds ->
      let verdicts = ref [] in
      op r (fun () ->
          Obs.Prof.with_span "chaos.sweep" (fun () ->
              verdicts := Scenarios.Chaos.sweep ~pool ~watchdog:true ~seeds ~until:scale.until ()));
      let ms = List.hd r.op_ms in
      r.reaction_ms <- (ms /. float_of_int scale.block_size) :: r.reaction_ms;
      List.iter
        (fun ((v : Scenarios.Chaos.verdict), _) ->
          let ok = Scenarios.Chaos.ok v in
          if not ok then
            check r false "chaos seed %d failed: %s" v.seed
              (Format.asprintf "%a" Scenarios.Chaos.pp v);
          if ok then r.delivered <- r.delivered +. 1.;
          r.demanded <- r.demanded +. 1.;
          count r "chaos.faults" (float_of_int (List.length v.plan.events));
          count r "chaos.reactions" (float_of_int v.reactions);
          count r "chaos.quarantines" (float_of_int v.quarantines);
          Option.iter
            (fun (w : Netsim.Watchdog.stats) ->
              count r "watchdog.steps_checked" (float_of_int w.steps_checked);
              count r "watchdog.sweeps" (float_of_int w.safety_sweeps);
              count r "watchdog.violations" (float_of_int w.violations);
              count r "watchdog.quarantines" (float_of_int w.quarantines))
            v.watchdog_stats)
        !verdicts;
      check r (List.length !verdicts = scale.block_size) "sweep lost verdicts")
    blocks;
  measure_live r pool

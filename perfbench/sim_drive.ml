(* The part flash-crowd and geant-cdn share: a simulation with the
   Fibbing controller wired exactly as [Fibbing.Controller.attach] wires
   it (revalidate on route change, react on poll, both before any
   watchdog), but with the benchmark's timers and spans around each
   call, and the step loop that times one [Sim.run_until] per op. *)

open Harness
module Sim = Netsim.Sim
module Controller = Fibbing.Controller

type t = {
  sim : Sim.t;
  net : Igp.Network.t;
  caps : Netsim.Link.capacities;
  controller : Controller.t;
  watchdog : Netsim.Watchdog.t option;
  flows : Netsim.Flow.t array;  (** Every input flow, by start time. *)
  spf0 : Igp.Spf_engine.stats;  (** Engine counters when set-up ended. *)
}

(* A poll carrying at least one alarm is a reaction: the time from
   entering the hook, through [react] and [Network.warm], until every
   FIB has reconverged. [warm_in_hook] exists for the determinism
   self-check, which shows the warm moves SPF work without adding any. *)
let wire ?(warm_in_hook = true) r sim net controller =
  Sim.on_route_change sim (fun sim ->
      count r "controller.revalidate_calls" 1.;
      Obs.Prof.with_span "controller.revalidate" (fun () -> Controller.revalidate controller sim));
  Sim.on_poll sim (fun sim alarms ->
      let t0 = now () in
      Obs.Prof.with_span "controller.react" (fun () -> Controller.react controller sim alarms);
      if alarms <> [] then begin
        if warm_in_hook then Obs.Prof.with_span "spf.warm" (fun () -> Igp.Network.warm net);
        r.reaction_ms <- ((now () -. t0) *. 1000.) :: r.reaction_ms
      end;
      count r "monitor.polls" 1.;
      count r "controller.react_calls" 1.;
      if alarms <> [] then count r "controller.alarm_calls" 1.;
      List.iter
        (fun (a : Netsim.Monitor.alarm) ->
          count r (if a.raised then "monitor.alarms_raised" else "monitor.alarms_cleared") 1.)
        alarms;
      peak r "controller.fakes_peak" (float_of_int (Controller.fake_count controller)))

(* Arm the watchdog after the controller's hooks, and route guard purges
   into the controller's hold-down, as [Scenarios.Chaos] does. *)
let arm_watchdog sim controller =
  let wd = Netsim.Watchdog.arm sim in
  Netsim.Watchdog.on_quarantine wd (fun ~prefix ~reason ->
      Controller.quarantine controller ~time:(Sim.time sim) ~prefix ~reason);
  wd

let make ?warm_in_hook ~watchdog r ~dt ~monitor net caps flows =
  let sim = Sim.create ~dt ~monitor ~flow_history:false net caps in
  let controller = Controller.create net in
  wire ?warm_in_hook r sim net controller;
  let watchdog = if watchdog then Some (arm_watchdog sim controller) else None in
  let flows = Array.of_list flows in
  Array.stable_sort
    (fun (a : Netsim.Flow.t) b -> Float.compare a.start_time b.start_time)
    flows;
  Array.iter (Sim.add_flow sim) flows;
  Igp.Network.warm net;
  { sim; net; caps; controller; watchdog; flows;
    spf0 = Igp.Spf_engine.stats (Igp.Network.engine net) }

(* Run [steps] steps, one op each. After each op's timer stops: account
   delivered and demanded stream bytes over the flows active during the
   step, and check the outputs — no flow above its demand, no link above
   capacity, no unroutable flow, and no watchdog violation.

   When all traffic ends at one router [sink], the delivered rate is the
   rate on the links into it — the same sum as over the flows, without a
   lookup per flow (at 100k streams that lookup costs more than the
   step). The last step then sums over the flows too, checks each flow,
   and checks that both sums agree. *)
let run_steps ?sink r t ~steps =
  let dt = Sim.dt t.sim in
  let started = ref 0 in
  let classes = ref 0. and active_sum = ref 0. in
  let violations () =
    match t.watchdog with Some wd -> Netsim.Watchdog.violation_count wd | None -> 0
  in
  for step = 1 to steps do
    let s = Sim.time t.sim in
    let v0 = violations () in
    op r (fun () -> Obs.Prof.with_span "sim.run_until" (fun () -> Sim.run_until t.sim (s +. dt)));
    while !started < Array.length t.flows && t.flows.(!started).start_time <= s do
      incr started
    done;
    let per_flow = sink = None || step = steps in
    let active = ref 0 and over_demand = ref 0 and demanded = ref 0. and delivered = ref 0. in
    for i = 0 to !started - 1 do
      let f = t.flows.(i) in
      if Netsim.Flow.end_time f > s then begin
        incr active;
        demanded := !demanded +. f.demand;
        if per_flow then begin
          let rate = Sim.flow_rate t.sim f.id in
          if rate > f.demand *. (1. +. 1e-9) then incr over_demand;
          delivered := !delivered +. rate
        end
      end
    done;
    let links = Sim.current_link_rates t.sim in
    let delivered =
      match sink with
      | None -> !delivered
      | Some sink ->
        let into_sink =
          List.fold_left (fun acc ((_, v), rate) -> if v = sink then acc +. rate else acc) 0. links
        in
        if per_flow then
          check r
            (Float.abs (into_sink -. !delivered) <= 1e-9 *. Float.max 1. !delivered)
            "t=%.1f: %.0f B/s into the sink, %.0f over the flows" s into_sink !delivered;
        into_sink
    in
    r.delivered <- r.delivered +. (delivered *. dt);
    r.demanded <- r.demanded +. (!demanded *. dt);
    classes := !classes +. float_of_int (Sim.flow_classes t.sim);
    active_sum := !active_sum +. float_of_int !active;
    check r (!over_demand = 0) "t=%.1f: %d flows above their demand" s !over_demand;
    List.iter
      (fun (link, rate) ->
        let cap = Netsim.Link.capacity t.caps link in
        check r (rate <= cap *. (1. +. 1e-9)) "t=%.1f: link above capacity (%.0f > %.0f)" s rate
          cap)
      links;
    check r (Sim.unroutable_flows t.sim = []) "t=%.1f: unroutable flows" s;
    check r (violations () = v0) "t=%.1f: watchdog violation" s
  done;
  count r "sim.steps" (float_of_int steps);
  count r "sim.classes_mean" (!classes /. float_of_int steps);
  count r "sim.flows_active_mean" (!active_sum /. float_of_int steps)

(* Work counters read from the program's own accessors once the round's
   ops are done. *)
let finish r t =
  measure_live r t;
  igp_counts r t.net ~spf0:t.spf0;
  List.iter
    (fun (a : Controller.action) ->
      let is prefix = String.starts_with ~prefix a.description in
      if is "steer " || is "re-optimize " then count r "controller.steers" 1.
      else if is "rejected steering" then count r "controller.rejected" 1.
      else if is "compile failed" then count r "controller.compile_failed" 1.)
    (Controller.actions t.controller);
  match t.watchdog with
  | None -> ()
  | Some wd ->
    let w = Netsim.Watchdog.stats wd in
    count r "watchdog.steps_checked" (float_of_int w.steps_checked);
    count r "watchdog.sweeps" (float_of_int w.safety_sweeps);
    count r "watchdog.violations" (float_of_int w.violations);
    count r "watchdog.quarantines" (float_of_int w.quarantines)

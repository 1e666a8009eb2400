(* flash-crowd: the paper's demo network under a COMETS-scale live
   event. 100k identical 1 Mbps streams from the two video servers (A
   and B) towards the blue prefix, arriving uniformly over a 50 s ramp
   in a 60 s round. The ramp matters: a burst makes step times bimodal
   and p90 swing between runs. Identical streams collapse into ~3 flow
   classes, so water-fill is cheap and the step cost is Sim's per-stream
   placement, rewalk and bookkeeping. *)

module Demo = Scenarios.Demo

type scale = { streams : int; ramp : float; horizon : float }

let full = { streams = 100_000; ramp = 50.; horizon = 60. }

let smoke = { streams = 2_000; ramp = 5.; horizon = 8. }

let dt = 0.5

(* The Demo topology, capacities and monitor, as [Scenarios.Demo.make]
   builds them, with per-flow history off (the Sim's own advice for
   crowd-size populations). *)
let setup ?warm_in_hook scale ~seed r =
  let topo = Netgraph.Topologies.demo () in
  let net = Igp.Network.create topo.graph in
  Igp.Network.announce_prefix net Demo.prefix ~origin:topo.c ~cost:0;
  let caps = Netsim.Link.capacities ~default:Demo.backbone_capacity in
  List.iter
    (fun link -> Netsim.Link.set_link caps link Demo.link_capacity)
    [ (topo.a, topo.r1); (topo.b, topo.r2); (topo.b, topo.r3) ];
  let monitor =
    Netsim.Monitor.create ~poll_interval:2.0 ~threshold:0.85 ~clear_threshold:0.6
      ~alpha:0.8 caps
  in
  let prng = Kit.Prng.create ~seed in
  let flows =
    List.init scale.streams (fun id ->
        Netsim.Flow.make ~id
          ~src:(if id land 1 = 0 then topo.a else topo.b)
          ~prefix:Demo.prefix ~demand:Demo.stream_rate
          ~start_time:(Kit.Prng.float prng scale.ramp) ())
  in
  (topo.c, Sim_drive.make ?warm_in_hook ~watchdog:false r ~dt ~monitor net caps flows)

let round ?warm_in_hook scale ~seed r =
  let (sink, t), setup_s = Harness.timed (fun () -> setup ?warm_in_hook scale ~seed r) in
  r.Harness.setup_s <- setup_s;
  Sim_drive.run_steps ~sink r t ~steps:(int_of_float (scale.horizon /. dt));
  Sim_drive.finish r t;
  t.net

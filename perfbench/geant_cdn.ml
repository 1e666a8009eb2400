(* geant-cdn: a CDN on the GEANT backbone. Viewers arrive at every PoP
   (Poisson) and leave (exponential watch times), pick a bitrate from a
   4-rung ladder, and mostly watch a few hot prefixes out of ~200
   (Zipf). Capacities are sized from the IGP load of the mean demand so
   that only the few hottest links congest. Controller and watchdog are
   both armed. The network (prefix table, origins, popularity, capacities)
   is fixed; the seed draws the viewers, so runs with different seeds
   load the same hot spots. Rounds start in steady state. Unlike
   flash-crowd this is many flow classes with churn both ways, so
   water-fill, the controller and SPF all carry weight. *)

module Demo = Scenarios.Demo
module G = Netgraph.Graph

type scale = {
  prefixes : int;
  arrivals_per_s : float;
  mean_watch_s : float;
  horizon : float;
  hot_links : int;  (** Links sized below their mean load. *)
}

let full =
  { prefixes = 200; arrivals_per_s = 80.; mean_watch_s = 40.; horizon = 20.; hot_links = 6 }

let smoke =
  { prefixes = 30; arrivals_per_s = 10.; mean_watch_s = 10.; horizon = 10.; hot_links = 2 }

let dt = 0.5

let ladder = [| (0.5, 0.2); (1., 0.3); (2., 0.3); (4., 0.2) |]

(* Headroom of ordinary links over their mean load, and the load share
   the hot links get: Poisson swings push ordinary links over the alarm
   threshold now and then, the hot links stay congested. *)
let headroom = 1.25

let hot_share = 0.8

let network_seed = 2016

(* Index drawn from cumulative weights. *)
let draw prng cumulative =
  let n = Array.length cumulative in
  let u = Kit.Prng.float prng cumulative.(n - 1) in
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cumulative.(mid) > u then find lo mid else find (mid + 1) hi
  in
  find 0 (n - 1)

let cumulate weights =
  let acc = ref 0. in
  Array.map (fun w -> acc := !acc +. w; !acc) weights

let setup ?warm_in_hook scale ~seed r =
  let g = (Netgraph.Zoo.geant ()).graph in
  let net = Igp.Network.create g in
  let prng = Kit.Prng.create ~seed:network_seed in
  let nodes = Array.of_list (G.nodes g) in
  let prefixes = Array.of_list (Igp.Prefix.synthesize prng ~n:scale.prefixes) in
  Kit.Prng.shuffle prng prefixes;
  let origins = Array.map (fun _ -> Kit.Prng.pick prng nodes) prefixes in
  Array.iteri
    (fun i p -> Igp.Network.announce_prefix net p ~origin:origins.(i) ~cost:0)
    prefixes;
  let popularity =
    Array.init scale.prefixes (fun i -> 1. /. (float_of_int (i + 1) ** 1.1))
  in
  let by_popularity = cumulate popularity in
  let by_rung = cumulate (Array.map snd ladder) in
  let mean_rate =
    Array.fold_left (fun acc (k, w) -> acc +. (k *. w)) 0. ladder *. Demo.stream_rate
  in
  (* Capacities from the fluid IGP load of the mean demand. *)
  let total_pop = by_popularity.(scale.prefixes - 1) in
  let sources = float_of_int (Array.length nodes - 1) in
  let demands =
    List.concat_map
      (fun i ->
        let amount =
          scale.arrivals_per_s *. scale.mean_watch_s *. popularity.(i) /. total_pop
          /. sources *. mean_rate
        in
        Array.to_list nodes
        |> List.filter (fun src -> src <> origins.(i))
        |> List.map (fun src -> { Netsim.Loadmap.src; prefix = prefixes.(i); amount }))
      (List.init scale.prefixes Fun.id)
  in
  let loads =
    Netsim.Loadmap.loads (Netsim.Loadmap.propagate net demands)
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  in
  let caps = Netsim.Link.capacities ~default:(snd (List.hd loads)) in
  List.iteri
    (fun i (link, load) ->
      Netsim.Link.set caps link (load *. if i < scale.hot_links then hot_share else headroom))
    loads;
  let monitor = Netsim.Monitor.create ~poll_interval:1.5 caps in
  let prng = Kit.Prng.create ~seed in
  let flows = ref [] and id = ref 0 in
  let viewer start_time =
    let i = draw prng by_popularity in
    let rec source () =
      let s = Kit.Prng.pick prng nodes in
      if s = origins.(i) then source () else s
    in
    let src = source () in
    let rung = fst ladder.(draw prng by_rung) in
    flows :=
      Netsim.Flow.make ~id:!id ~src ~prefix:prefixes.(i) ~demand:(rung *. Demo.stream_rate)
        ~start_time
        ~duration:(Kit.Prng.exponential prng ~mean:scale.mean_watch_s)
        ()
      :: !flows;
    incr id
  in
  (* Start in steady state: the mean audience is already watching
     (exponential watch times are memoryless), then Poisson arrivals. *)
  for _ = 1 to int_of_float (scale.arrivals_per_s *. scale.mean_watch_s) do
    viewer 0.
  done;
  let t = ref 0. in
  while
    t := !t +. Kit.Prng.exponential prng ~mean:(1. /. scale.arrivals_per_s);
    !t < scale.horizon
  do
    viewer !t
  done;
  Sim_drive.make ?warm_in_hook ~watchdog:true r ~dt ~monitor net caps !flows

let round ?warm_in_hook scale ~seed r =
  let t, setup_s = Harness.timed (fun () -> setup ?warm_in_hook scale ~seed r) in
  r.Harness.setup_s <- setup_s;
  Sim_drive.run_steps r t ~steps:(int_of_float (scale.horizon /. dt));
  Sim_drive.finish r t;
  t.net

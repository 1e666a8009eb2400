(* lie-churn: the control plane alone, write-heavy. GEANT carries ~1,000
   synthesized prefixes (the FAQS incremental-FIB regime); each op
   injects or retracts one lie at a random router for a random prefix,
   reconverges every router with [Network.warm], then serves a fixed
   batch of longest-prefix-match lookups. SPF refill and trie patching
   dominate; there is no data plane. A round's op sequence ends with
   every lie retracted, so rounds replay from the same state. *)

module G = Netgraph.Graph
module Network = Igp.Network
open Harness

type scale = {
  prefixes : int;
  ops : int;  (** Ops per round. *)
  lookups : int;  (** LPM lookups per op. *)
  probes : int;  (** Distinct probe addresses. *)
  max_live : int;  (** Lies installed at once, at most. *)
}

let full = { prefixes = 1_000; ops = 64; lookups = 256; probes = 512; max_live = 8 }

let smoke = { prefixes = 100; ops = 8; lookups = 32; probes = 64; max_live = 3 }

type action = Inject of Igp.Lsa.fake | Retract of string

type t = {
  net : Network.t;
  actions : action array;
  batches : (G.node * int) array array;  (** Per op: (router, probe index). *)
  probes : int array;  (** Probe addresses. *)
  covering : Igp.Prefix.t list array;
      (** Per probe: every announced prefix containing it, longest
          first — the flat-scan oracle, computed once. *)
  spf0 : Igp.Spf_engine.stats;
}

let setup scale ~seed =
  let g = (Netgraph.Zoo.geant ()).graph in
  let net = Network.create g in
  let prng = Kit.Prng.create ~seed in
  let nodes = Array.of_list (G.nodes g) in
  let prefixes = Array.of_list (Igp.Prefix.synthesize prng ~n:scale.prefixes) in
  Array.iter
    (fun p -> Network.announce_prefix net p ~origin:(Kit.Prng.pick prng nodes) ~cost:0)
    prefixes;
  let probes =
    Array.init scale.probes (fun _ ->
        let p = Kit.Prng.pick prng prefixes in
        let span = Igp.Prefix.last_addr p - Igp.Prefix.first_addr p + 1 in
        Igp.Prefix.first_addr p + Kit.Prng.int prng span)
  in
  let covering =
    Array.map
      (fun a ->
        Array.to_list prefixes
        |> List.filter (fun p -> Igp.Prefix.contains_addr p a)
        |> List.sort (fun p q -> compare (Igp.Prefix.len q) (Igp.Prefix.len p)))
      probes
  in
  let live = ref [] and next = ref 0 in
  let actions =
    Array.init scale.ops (fun i ->
        let n = List.length !live in
        let retract =
          n > 0 && (n >= scale.ops - i || n >= scale.max_live || Kit.Prng.bool prng)
        in
        if retract then begin
          let id = List.nth !live (Kit.Prng.int prng n) in
          live := List.filter (fun x -> x <> id) !live;
          Retract id
        end
        else begin
          let attachment = Kit.Prng.pick prng nodes in
          let fake_id = Printf.sprintf "lie%d" !next in
          incr next;
          live := fake_id :: !live;
          Inject
            {
              fake_id;
              attachment;
              attachment_cost = 1;
              prefix = Kit.Prng.pick prng prefixes;
              announced_cost = 0;
              forwarding = fst (Kit.Prng.pick prng (Array.of_list (G.succ g attachment)));
            }
        end)
  in
  let batches =
    Array.init scale.ops (fun _ ->
        Array.init scale.lookups (fun _ ->
            (Kit.Prng.pick prng nodes, Kit.Prng.int prng scale.probes)))
  in
  (* Warm the engine: every table and every router's trie. *)
  Network.warm net;
  Array.iter (fun router -> ignore (Network.lpm net ~router probes.(0))) nodes;
  { net; actions; batches; probes; covering;
    spf0 = Igp.Spf_engine.stats (Network.engine net) }

let oracle t ~router probe =
  List.find_map
    (fun p -> Option.map (fun fib -> (p, fib)) (Network.fib t.net ~router p))
    t.covering.(probe)

let round scale ~seed r =
  let t, setup_s = timed (fun () -> setup scale ~seed) in
  r.setup_s <- setup_s;
  let results = Array.make scale.lookups None in
  Array.iteri
    (fun i action ->
      let batch = t.batches.(i) in
      op r (fun () ->
          let t0 = now () in
          (match action with
          | Inject fake ->
            Obs.Prof.with_span "lsdb.inject" (fun () -> Network.inject_fake t.net fake)
          | Retract fake_id ->
            Obs.Prof.with_span "lsdb.retract" (fun () -> Network.retract_fake t.net ~fake_id));
          Obs.Prof.with_span "spf.warm" (fun () -> Network.warm t.net);
          r.reaction_ms <- ((now () -. t0) *. 1000.) :: r.reaction_ms;
          Obs.Prof.with_span "fib.lpm" (fun () ->
              Array.iteri
                (fun j (router, probe) ->
                  results.(j) <- Network.lpm t.net ~router t.probes.(probe))
                batch));
      count r (match action with Inject _ -> "lsdb.injects" | Retract _ -> "lsdb.retracts") 1.;
      count r "fib.lpm_calls" (float_of_int scale.lookups);
      Array.iteri
        (fun j (router, probe) ->
          let ok =
            match (results.(j), oracle t ~router probe) with
            | None, None -> true
            | Some (_, agg), Some (_, flat) -> Igp.Fib.same_behavior agg flat
            | Some _, None | None, Some _ -> false
          in
          check r ok "op %d: LPM disagrees with the flat scan" i;
          if results.(j) <> None then r.delivered <- r.delivered +. 1.;
          r.demanded <- r.demanded +. 1.)
        batch)
    t.actions;
  measure_live r t;
  check r (Network.fakes t.net = []) "lies left installed at the end of the round";
  igp_counts r t.net ~spf0:t.spf0;
  t.net

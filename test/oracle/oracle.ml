(* Reference max-min allocator: the original list-based progressive
   fill, the oracle the property tests hold [Netsim.Fairshare] to and the
   pre-kernel baseline the TFLOW bench times. Per round it rescans every
   link with List.filter/List.length, so it is O(flows * links) per
   freeze. *)

open Netsim
open Fairshare

let epsilon = 1e-9

let allocate_reference capacities (routes : route list) =
  let ids = List.map (fun r -> r.flow.Flow.id) routes in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Oracle.allocate_reference: duplicate flow ids";
  let routes_arr = Array.of_list routes in
  let n = Array.length routes_arr in
  let rates = Array.make n 0. in
  let frozen = Array.make n false in
  (* Distinct links and, per link, the indices of flows crossing it. *)
  let link_flows : (Link.t, int list) Hashtbl.t = Hashtbl.create 32 in
  Array.iteri
    (fun i r ->
      List.iter
        (fun link ->
          let existing = Option.value ~default:[] (Hashtbl.find_opt link_flows link) in
          Hashtbl.replace link_flows link (i :: existing))
        (List.sort_uniq Link.compare r.links))
    routes_arr;
  let remaining : (Link.t, float) Hashtbl.t = Hashtbl.create 32 in
  Hashtbl.iter
    (fun link _ -> Hashtbl.replace remaining link (Link.capacity capacities link))
    link_flows;
  (* Flows with no links are only demand-capped. *)
  Array.iteri
    (fun i r ->
      if r.links = [] then begin
        rates.(i) <- r.flow.Flow.demand;
        frozen.(i) <- true
      end)
    routes_arr;
  let level = ref 0. in
  let unfrozen_on link =
    List.filter (fun i -> not frozen.(i))
      (Option.value ~default:[] (Hashtbl.find_opt link_flows link))
  in
  let any_unfrozen () = Array.exists (fun f -> not f) frozen in
  while any_unfrozen () do
    (* Level at which the tightest link saturates. *)
    let link_limit = ref infinity and saturating = ref [] in
    Hashtbl.iter
      (fun link rem ->
        let count = List.length (unfrozen_on link) in
        if count > 0 then begin
          let saturation_level = !level +. (max 0. rem /. float_of_int count) in
          if saturation_level < !link_limit -. epsilon then begin
            link_limit := saturation_level;
            saturating := [ link ]
          end
          else if saturation_level < !link_limit +. epsilon then
            saturating := link :: !saturating
        end)
      remaining;
    (* Level at which the most modest flow hits its demand. *)
    let demand_limit = ref infinity in
    Array.iteri
      (fun i r ->
        if not frozen.(i) then
          demand_limit := min !demand_limit r.flow.Flow.demand)
      routes_arr;
    let target = min !link_limit !demand_limit in
    let delta = target -. !level in
    (* Consume capacity for the growth of all unfrozen flows. *)
    Hashtbl.iter
      (fun link rem ->
        let count = List.length (unfrozen_on link) in
        if count > 0 then
          Hashtbl.replace remaining link (rem -. (float_of_int count *. delta)))
      remaining;
    level := target;
    let froze = ref false in
    (* Demand-capped flows first. *)
    Array.iteri
      (fun i r ->
        if (not frozen.(i)) && r.flow.Flow.demand <= target +. epsilon then begin
          rates.(i) <- r.flow.Flow.demand;
          frozen.(i) <- true;
          froze := true
        end)
      routes_arr;
    (* Flows crossing a saturated link freeze at the fair level. The
       comparison is epsilon-tolerant (a demand limit within epsilon of
       the link limit used to skip this round entirely and dump the
       saturated flows into the safety net below). *)
    if !link_limit <= target +. epsilon then
      List.iter
        (fun link ->
          List.iter
            (fun i ->
              if not frozen.(i) then begin
                rates.(i) <- target;
                frozen.(i) <- true;
                froze := true
              end)
            (unfrozen_on link))
        !saturating;
    (* Numerical safety net: progress is guaranteed above, but if
       tolerances conspire, freeze everything at the current level. *)
    if not !froze then
      Array.iteri
        (fun i _ ->
          if not frozen.(i) then begin
            rates.(i) <- target;
            frozen.(i) <- true
          end)
        routes_arr
  done;
  Array.to_list (Array.mapi (fun i r -> (r.flow.Flow.id, rates.(i))) routes_arr)

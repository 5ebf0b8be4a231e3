open Msched_netlist
module System = Msched_arch.System
module Topology = Msched_arch.Topology
module Sink = Msched_obs.Sink

type path = { p_len : int; p_hops : (int * int) list }

type log = {
  mutable l_free : (int * int) list;
  mutable l_blocked : (int * int) list;
  mutable l_expanded : int;
  mutable l_rounds : int;
}

let log () = { l_free = []; l_blocked = []; l_expanded = 0; l_rounds = 0 }

(* ---- Search workspace ----

   One per domain ([Domain.DLS]), reused across searches, so the parallel
   TIERS workers never share one.  A state (fpga [f], layer [l]) — layer =
   slots since the start slot — has id [l * nfpga + f]; the per-state
   arrays are indexed by id and reset through the layer lists after every
   search, so a search costs only the states it discovers. *)

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 16 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then v.a <- Array.append v.a (Array.make v.n 0);
    v.a.(v.n) <- x;
    v.n <- v.n + 1
end

type ws = {
  mutable parent : int array;  (* -1: undiscovered; the start is its own *)
  mutable sidx : int array;  (* successor index within the parent *)
  mutable born : int array;  (* deepening round of discovery *)
  mutable layers : Vec.t array;  (* members of each layer, in BFS order *)
  mutable pending : Vec.t array;  (* pruned edges, bucketed by f-value *)
}

let ws_key =
  Domain.DLS.new_key (fun () ->
      { parent = [||]; sidx = [||]; born = [||]; layers = [||];
        pending = [||] })

let ensure_state ws id =
  let cap = Array.length ws.parent in
  if id >= cap then begin
    let extra fill = Array.make (max (id + 1 - cap) cap) fill in
    ws.parent <- Array.append ws.parent (extra (-1));
    ws.sidx <- Array.append ws.sidx (extra 0);
    ws.born <- Array.append ws.born (extra 0)
  end

let vec arr i =
  let n = Array.length arr in
  if i < n then arr
  else
    Array.append arr (Array.init (max (i + 1 - n) n) (fun _ -> Vec.create ()))

(* ---- The search core ----

   Layered BFS over the time-expanded graph from [start] toward [target]:
   waiting in place and hopping over a channel both advance one layer, so
   the first layer that reaches [target] gives the minimal latency, and a
   state's parent is the first state (in BFS order) that reaches it.

   Goal direction: a successor whose f-value [layer + distance to target]
   exceeds [bound] is neither probed nor discovered; its edge is parked in
   the [pending] bucket of its f-value.  When a round ends without the
   target, the bound rises to the smallest parked f-value (edges beyond
   [r_limit] are dropped) and only that bucket's edges resume; each state
   is expanded at most once.  Resumed edges and new states are processed
   in the unbounded search's order within their layer.  Hop distance is
   1-Lipschitz along every channel, so every predecessor of an unpruned
   state is unpruned, and the path found is exactly the unbounded
   search's (docs/ALGORITHM.md, "Goal-directed search"). *)
let core ~forward ~order ~probe sys ~start ~target ~r0 ~r_limit log =
  let ws = Domain.DLS.get ws_key in
  let nf = System.num_fpgas sys in
  let stride = nf + 1 in
  let tgt = Ids.Fpga.of_int target in
  let topo = System.topology sys in
  let dist f = Topology.distance topo (Ids.Fpga.of_int f) tgt in
  let chans f =
    order
      ((if forward then System.out_channels else System.in_channels)
         sys (Ids.Fpga.of_int f))
  in
  let far (c : System.channel) =
    Ids.Fpga.to_int (if forward then c.System.dst else c.System.src)
  in
  let blimit = r_limit - r0 in
  let bound = ref (min blimit (dist start)) in
  let round = ref 0 and found = ref (-1) in
  let nlayers = ref 0 and npending = ref 0 in
  let discover t ~parent ~k =
    let l = t / nf in
    if l >= Array.length ws.layers then ws.layers <- vec ws.layers l;
    nlayers := max !nlayers (l + 1);
    let v = ws.layers.(l) in
    ws.parent.(t) <- parent;
    ws.sidx.(t) <- k;
    ws.born.(t) <- !round;
    Vec.push v t;
    if t mod nf = target then found := t
  in
  (* Successor [k] of state [s]: 0 waits, [k] takes channel [c]. *)
  let edge s k c =
    let l = (s / nf) + 1 in
    let g = match c with None -> s mod nf | Some c -> far c in
    let fv = l + dist g in
    if fv > !bound then begin
      if fv <= blimit then begin
        if fv >= Array.length ws.pending then ws.pending <- vec ws.pending fv;
        npending := max !npending (fv + 1);
        Vec.push ws.pending.(fv) ((s * stride) + k)
      end
    end
    else begin
      let t = (l * nf) + g in
      ensure_state ws t;
      if
        ws.parent.(t) < 0
        &&
        match c with
        | None -> true
        | Some c -> probe ~channel:c.System.channel_index ~rslot:(r0 + l)
      then discover t ~parent:s ~k
    end
  in
  let nth_channel s k = List.nth (chans (s mod nf)) (k - 1) in
  let expand s =
    log.l_expanded <- log.l_expanded + 1;
    edge s 0 None;
    List.iteri
      (fun i c -> if !found < 0 then edge s (i + 1) (Some c))
      (chans (s mod nf))
  in
  (* BFS order within a layer is lexicographic in the successor indices
     along the path from the start: compare just below the closest common
     ancestor of two states. *)
  let rec before a b =
    let pa = ws.parent.(a) and pb = ws.parent.(b) in
    if pa = pb then compare ws.sidx.(a) ws.sidx.(b) else before pa pb
  in
  (* A work item is [s * stride + k]: edge [k] of [s], or [k = nf] for the
     full expansion of a state new this round. *)
  let by_bfs_order x y =
    let sx = x / stride and sy = y / stride in
    if sx = sy then compare x y else before sx sy
  in
  (* One round: layer by layer, the resumed edges and the new states' (the
     tail of each layer) expansions, in BFS order.  In the first round every
     layer is all new and already in BFS order. *)
  let run_round resumed =
    let ne = Array.length resumed in
    let e = ref 0 and l = ref 0 in
    let edge_layer i = resumed.(i) / stride / nf in
    let fresh l =
      let v = ws.layers.(l) in
      let i = ref v.Vec.n in
      while !i > 0 && ws.born.(v.Vec.a.(!i - 1)) = !round do
        decr i
      done;
      Array.init (v.Vec.n - !i) (fun j -> (v.Vec.a.(!i + j) * stride) + nf)
    in
    let has_new l =
      l < !nlayers
      &&
      let v = ws.layers.(l) in
      v.Vec.n > 0 && ws.born.(v.Vec.a.(v.Vec.n - 1)) = !round
    in
    while !found < 0 && (!e < ne || has_new !l) do
      if not (has_new !l) then l := edge_layer !e;
      let e0 = !e in
      while !e < ne && edge_layer !e = !l do
        incr e
      done;
      let items =
        if !e = e0 then fresh !l
        else Array.append (Array.sub resumed e0 (!e - e0)) (fresh !l)
      in
      if !round > 0 then Array.sort by_bfs_order items;
      Array.iter
        (fun code ->
          let s = code / stride and k = code mod stride in
          if !found >= 0 then ()
          else if k = nf then expand s
          else edge s k (if k = 0 then None else Some (nth_channel s k)))
        items;
      incr l
    done
  in
  let search () =
    ensure_state ws start;
    discover start ~parent:start ~k:0;
    run_round [||];
    let b = ref (!bound + 1) in
    while !found < 0 && !b < !npending do
      let bucket = ws.pending.(!b) in
      if bucket.Vec.n > 0 then begin
        bound := !b;
        incr round;
        log.l_rounds <- log.l_rounds + 1;
        let resumed = Array.sub bucket.Vec.a 0 bucket.Vec.n in
        bucket.Vec.n <- 0;
        Array.sort compare resumed;
        run_round resumed
      end;
      incr b
    done;
    if !found < 0 then None
    else begin
      log.l_expanded <- log.l_expanded + 1;
      (* Hops start-side first: (channel, slot of the state it reached). *)
      let rec walk t acc =
        let s = ws.parent.(t) in
        if s = t then acc
        else
          let k = ws.sidx.(t) in
          let hop () =
            ((nth_channel s k).System.channel_index, r0 + (t / nf))
          in
          walk s (if k = 0 then acc else hop () :: acc)
      in
      Some (!found / nf, walk !found [])
    end
  in
  let reset () =
    for l = 0 to !nlayers - 1 do
      let v = ws.layers.(l) in
      for i = 0 to v.Vec.n - 1 do
        ws.parent.(v.Vec.a.(i)) <- -1
      done;
      v.Vec.n <- 0
    done;
    for b = 0 to !npending - 1 do
      ws.pending.(b).Vec.n <- 0
    done
  in
  Fun.protect ~finally:reset search

(* Channels are explored least-contested first under a context with
   congestion history — ordered by the history as it stands when the search
   starts, so the order only breaks ties between equal-length paths. *)
let run ~forward ?ctx ~probe log sys ~src ~dst ~anchor ~max_extra =
  if Ids.Fpga.equal src dst then Some { p_len = 0; p_hops = [] }
  else begin
    let order =
      match ctx with
      | Some c when Reroute.history_total c > 0 ->
          let h (ch : System.channel) =
            Reroute.history c ~channel:ch.System.channel_index
          in
          List.stable_sort (fun a b -> compare (h a) (h b))
      | Some _ | None -> Fun.id
    in
    let probe ~channel ~rslot =
      let free = probe ~channel ~rslot in
      if free then log.l_free <- (channel, rslot) :: log.l_free
      else log.l_blocked <- (channel, rslot) :: log.l_blocked;
      free
    in
    let start, target = if forward then (src, dst) else (dst, src) in
    let dist = Topology.distance (System.topology sys) src dst in
    core ~forward ~order ~probe sys ~start:(Ids.Fpga.to_int start)
      ~target:(Ids.Fpga.to_int target) ~r0:anchor
      ~r_limit:(anchor + dist + max_extra) log
    |> Option.map (fun (len, hops) ->
           (* Backward hops come out destination-side first; [p_hops] is
              source-side first in both directions. *)
           { p_len = len; p_hops = (if forward then hops else List.rev hops) })
  end

(* Deferred accounting of one search: counters, the per-search effort
   histogram, context expansion charges and the congestion-history bumps
   of every blocked probe (applied when the search ends, so the search's
   own channel order never sees them). *)
let account ?(obs = Sink.null) ?ctx log result ~dist =
  Sink.incr obs "pathfind.searches";
  (* A search that ran expanded at least its start state. *)
  if log.l_expanded > 0 then begin
    Sink.add obs "pathfind.states_expanded" log.l_expanded;
    Sink.observe obs "pathfind.expansions" log.l_expanded;
    Sink.add obs "pathfind.deepen_rounds" log.l_rounds;
    (match ctx with
    | Some c ->
        List.iter
          (fun (channel, _) -> Reroute.bump_history c ~channel)
          (List.rev log.l_blocked);
        Reroute.note_expansions c log.l_expanded;
        Sink.add obs "reroute.expansions" log.l_expanded
    | None -> ());
    Sink.add obs "pathfind.congestion_blocked" (List.length log.l_blocked);
    match result with
    | None -> Sink.incr obs "pathfind.failures"
    | Some p ->
        Sink.observe obs "pathfind.path_len" p.p_len;
        Sink.observe obs "pathfind.extra_slots" (p.p_len - dist)
  end

let live ~forward ?obs ?ctx ?log:l sys res ~src ~dst ~anchor ~max_extra =
  let l = match l with Some l -> l | None -> log () in
  let result =
    run ~forward ?ctx ~probe:(Resource.free_at res) l sys ~src ~dst ~anchor
      ~max_extra
  in
  account ?obs ?ctx l result
    ~dist:(Topology.distance (System.topology sys) src dst);
  result

let search ?obs ?ctx ?log sys res ~src ~dst ~r_arr ~max_extra =
  live ~forward:false ?obs ?ctx ?log sys res ~src ~dst ~anchor:r_arr ~max_extra

let search_forward ?obs ?ctx ?log sys res ~src ~dst ~t_dep ~max_extra =
  live ~forward:true ?obs ?ctx ?log sys res ~src ~dst ~anchor:t_dep ~max_extra

(* ---- Frozen speculative search (see tiers.ml's parallel pass). ---- *)

let overlay_free res overlay ~channel ~rslot =
  Resource.usage_at res ~channel ~rslot
  + Option.value ~default:0 (Hashtbl.find_opt overlay (channel, rslot))
  < Resource.effective_width res ~channel

let search_frozen ?ctx sys res ~overlay ~log ~src ~dst ~r_arr ~max_extra =
  run ~forward:false ?ctx ~probe:(overlay_free res overlay) log sys ~src ~dst
    ~anchor:r_arr ~max_extra

let reserve_path res path =
  List.iter
    (fun (channel, rslot) -> Resource.reserve res ~channel ~rslot)
    path.p_hops

(* Spatial BFS from [src]; [via.(g)] is the channel that reached [g]
   ([-1] for the source, [-2] while undiscovered). *)
let shortest_free_wire_path_keeping sys res ~src ~dst ~min_left =
  let via = Array.make (System.num_fpgas sys) (-2) in
  let queue = Queue.create () in
  via.(Ids.Fpga.to_int src) <- -1;
  Queue.add src queue;
  while via.(Ids.Fpga.to_int dst) = -2 && not (Queue.is_empty queue) do
    let width (c : System.channel) =
      Resource.effective_width res ~channel:c.System.channel_index
    in
    (* Prefer channels with the most wires left so dedication spreads
       instead of starving hot channels. *)
    List.sort
      (fun a b -> compare (width b) (width a))
      (System.out_channels sys (Queue.pop queue))
    |> List.iter (fun (c : System.channel) ->
           let g = Ids.Fpga.to_int c.System.dst in
           if width c > min_left && via.(g) = -2 then begin
             via.(g) <- c.System.channel_index;
             Queue.add c.System.dst queue
           end)
  done;
  let rec unwind f acc =
    match via.(Ids.Fpga.to_int f) with
    | -1 -> Some acc
    | -2 -> None
    | c -> unwind (System.channel sys c).System.src (c :: acc)
  in
  unwind dst []

(* Dedicating the last wire of a channel would disconnect the multiplexed
   network, so keep one wire in reserve and only fall back to draining a
   channel completely when no alternative exists. *)
let shortest_free_wire_path ?(obs = Sink.null) sys res ~src ~dst =
  Sink.incr obs "pathfind.hard_searches";
  let result =
    match shortest_free_wire_path_keeping sys res ~src ~dst ~min_left:1 with
    | Some p -> Some p
    | None ->
        Sink.incr obs "pathfind.hard_fallbacks";
        shortest_free_wire_path_keeping sys res ~src ~dst ~min_left:0
  in
  (match result with
  | Some p -> Sink.observe obs "pathfind.hard_path_len" (List.length p)
  | None -> Sink.incr obs "pathfind.failures");
  result

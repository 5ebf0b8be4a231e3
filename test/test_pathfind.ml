(* The goal-directed search core against the unbounded layered BFS it
   replaces.  [reference] below is a verbatim-semantics copy of that BFS
   (tuple-keyed parent table, FIFO queue, every channel of every popped
   state probed), kept here only as the oracle.  On random mesh, torus and
   crossbar systems with random pre-reserved (channel, slot) cells, in
   both directions and with random congestion-history channel orders, the
   bounded search must return the same path, probe a subset of the
   reference's cells and expand no more states. *)

open Msched_netlist
module Topology = Msched_arch.Topology
module System = Msched_arch.System
module Resource = Msched_route.Resource
module Pathfind = Msched_route.Pathfind
module Reroute = Msched_route.Reroute

type ref_run = {
  rr_path : Pathfind.path option;
  rr_probes : (int * int) list;
  rr_expanded : int;
}

let reference ~forward ~order sys res ~src ~dst ~anchor ~max_extra =
  if Ids.Fpga.equal src dst then
    {
      rr_path = Some { Pathfind.p_len = 0; p_hops = [] };
      rr_probes = [];
      rr_expanded = 0;
    }
  else begin
    let dist = Topology.distance (System.topology sys) src dst in
    let r_limit = anchor + dist + max_extra in
    let start, target = if forward then (src, dst) else (dst, src) in
    let parent = Hashtbl.create 256 in
    let queue = Queue.create () in
    let s0 = (Ids.Fpga.to_int start, anchor) in
    Hashtbl.replace parent s0 (s0, None);
    Queue.add s0 queue;
    let probes = ref [] and expanded = ref 0 and found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let ((f, r) as state) = Queue.pop queue in
      incr expanded;
      if Ids.Fpga.to_int target = f then found := Some state
      else if r < r_limit then begin
        let push next via =
          if not (Hashtbl.mem parent next) then begin
            Hashtbl.replace parent next (state, via);
            Queue.add next queue
          end
        in
        push (f, r + 1) None;
        let chans =
          (if forward then System.out_channels else System.in_channels)
            sys (Ids.Fpga.of_int f)
        in
        List.iter
          (fun (c : System.channel) ->
            let ch = c.System.channel_index in
            probes := (ch, r + 1) :: !probes;
            let far = if forward then c.System.dst else c.System.src in
            if Resource.free_at res ~channel:ch ~rslot:(r + 1) then
              push (Ids.Fpga.to_int far, r + 1) (Some ch))
          (order chans)
      end
    done;
    let path =
      Option.map
        (fun final ->
          let rec unwind state acc =
            let prev, via = Hashtbl.find parent state in
            let acc =
              match via with Some ch -> (ch, snd state) :: acc | None -> acc
            in
            if prev = state then acc else unwind prev acc
          in
          let hops = unwind final [] in
          {
            Pathfind.p_len = snd final - anchor;
            p_hops = (if forward then hops else List.rev hops);
          })
        !found
    in
    { rr_path = path; rr_probes = !probes; rr_expanded = !expanded }
  end

let pp_path ppf = function
  | None -> Format.fprintf ppf "None"
  | Some p ->
      Format.fprintf ppf "len %d [%a]" p.Pathfind.p_len
        (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf (c, s) ->
             Format.fprintf ppf "%d@%d" c s))
        p.Pathfind.p_hops

(* One random scenario, a pure function of [seed]. *)
type scenario = {
  sys : System.t;
  res : Resource.t;
  ctx : Reroute.t option;
  src : Ids.Fpga.t;
  dst : Ids.Fpga.t;
  anchor : int;
  max_extra : int;
  descr : string;
}

let scenario seed =
  let st = Random.State.make [| seed |] in
  let kind =
    match Random.State.int st 3 with
    | 0 -> Topology.Mesh
    | 1 -> Topology.Torus
    | _ -> Topology.Crossbar
  in
  let nx = 1 + Random.State.int st 4 and ny = 1 + Random.State.int st 4 in
  let nx = if nx * ny < 2 then 2 else nx in
  let topo = Topology.make kind ~nx ~ny in
  let maxdeg =
    List.fold_left
      (fun m f -> max m (Topology.degree topo f))
      1 (Topology.fpgas topo)
  in
  let wires = 1 + Random.State.int st 2 in
  let sys = System.make topo ~pins_per_fpga:(2 * maxdeg * wires) in
  let res = Resource.create sys in
  let n = System.num_fpgas sys in
  let src = Ids.Fpga.of_int (Random.State.int st n) in
  let dst = Ids.Fpga.of_int (Random.State.int st n) in
  let anchor = Random.State.int st 6 in
  let max_extra = Random.State.int st 10 in
  let nch = Array.length (System.channels sys) in
  (* Fill random cells completely, concentrated in the search window. *)
  let window = anchor + nx + ny + max_extra + 2 in
  let cells = Random.State.int st (1 + (nch * window / 2)) in
  for _ = 1 to cells do
    let channel = Random.State.int st nch in
    let rslot = 1 + Random.State.int st window in
    while Resource.free_at res ~channel ~rslot do
      Resource.reserve res ~channel ~rslot
    done
  done;
  let ctx =
    if Random.State.bool st then None
    else begin
      let c = Reroute.create () in
      for _ = 1 to Random.State.int st (2 * nch) do
        Reroute.bump_history c ~channel:(Random.State.int st nch)
      done;
      Some c
    end
  in
  let descr =
    Format.asprintf
      "seed %d: %a, %d wires, %d->%d anchor %d extra %d, %d cells%s" seed
      Topology.pp topo wires (Ids.Fpga.to_int src) (Ids.Fpga.to_int dst)
      anchor max_extra cells
      (if ctx = None then "" else ", history")
  in
  { sys; res; ctx; src; dst; anchor; max_extra; descr }

(* The channel order the bounded search uses: congestion history as it
   stands when the search starts, least-contested first. *)
let history_order ctx chans =
  match ctx with
  | Some c when Reroute.history_total c > 0 ->
      List.stable_sort
        (fun (a : System.channel) (b : System.channel) ->
          compare
            (Reroute.history c ~channel:a.System.channel_index)
            (Reroute.history c ~channel:b.System.channel_index))
        chans
  | Some _ | None -> chans

let compare_once ~forward sc =
  let reference =
    reference ~forward ~order:(history_order sc.ctx) sc.sys sc.res ~src:sc.src
      ~dst:sc.dst ~anchor:sc.anchor ~max_extra:sc.max_extra
  in
  let log = Pathfind.log () in
  let bounded =
    if forward then
      Pathfind.search_forward ?ctx:sc.ctx ~log sc.sys sc.res ~src:sc.src
        ~dst:sc.dst ~t_dep:sc.anchor ~max_extra:sc.max_extra
    else
      Pathfind.search ?ctx:sc.ctx ~log sc.sys sc.res ~src:sc.src ~dst:sc.dst
        ~r_arr:sc.anchor ~max_extra:sc.max_extra
  in
  let dir = if forward then "forward" else "backward" in
  if bounded <> reference.rr_path then
    QCheck.Test.fail_reportf "%s %s: path %a, reference %a" sc.descr dir
      pp_path bounded pp_path reference.rr_path;
  let probed = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace probed p ()) reference.rr_probes;
  List.iter
    (fun ((c, s) as p) ->
      if not (Hashtbl.mem probed p) then
        QCheck.Test.fail_reportf "%s %s: probe %d@%d outside the reference set"
          sc.descr dir c s)
    (log.Pathfind.l_free @ log.Pathfind.l_blocked);
  if log.Pathfind.l_expanded > reference.rr_expanded then
    QCheck.Test.fail_reportf "%s %s: %d expansions > reference %d" sc.descr dir
      log.Pathfind.l_expanded reference.rr_expanded;
  true

let prop_matches_reference =
  QCheck.Test.make ~name:"bounded search == unbounded BFS (both directions)"
    ~count:600
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      (* A fresh scenario per direction: each search bumps its context's
         history at the end. *)
      compare_once ~forward:false (scenario seed)
      && compare_once ~forward:true (scenario seed))

(* r_limit exhaustion: every channel into the destination is full for the
   whole window, so both searches give up at the same limit — and once the
   slack covers the hops behind the wall both find the same path. *)
let test_exhaustion () =
  let sys =
    System.make (Topology.make Topology.Mesh ~nx:3 ~ny:2) ~pins_per_fpga:6
  in
  let res = Resource.create sys in
  let src = Ids.Fpga.of_int 0 and dst = Ids.Fpga.of_int 5 in
  let dist = Topology.distance (System.topology sys) src dst in
  let max_extra = 4 in
  let wall = dist + max_extra in
  List.iter
    (fun (c : System.channel) ->
      for rslot = 1 to wall do
        while Resource.free_at res ~channel:c.System.channel_index ~rslot do
          Resource.reserve res ~channel:c.System.channel_index ~rslot
        done
      done)
    (System.in_channels sys dst);
  List.iter
    (fun (extra, expect_some) ->
      let r =
        reference ~forward:false ~order:Fun.id sys res ~src ~dst ~anchor:0
          ~max_extra:extra
      in
      let log = Pathfind.log () in
      let p =
        Pathfind.search ~log sys res ~src ~dst ~r_arr:0 ~max_extra:extra
      in
      Alcotest.(check bool)
        (Printf.sprintf "extra %d: same result" extra)
        true (p = r.rr_path);
      Alcotest.(check bool)
        (Printf.sprintf "extra %d: found" extra)
        expect_some (p <> None);
      Alcotest.(check bool)
        (Printf.sprintf "extra %d: no more expansions than the reference" extra)
        true (log.Pathfind.l_expanded <= r.rr_expanded))
    [
      (max_extra, false);
      (max_extra + dist - 1, false);
      (max_extra + dist, true);
    ]

(* Deepening resumes parked edges rather than restarting: a long wait
   behind a blocked channel costs each state once, not once per round. *)
let test_deepening_linear () =
  let sys =
    System.make (Topology.make Topology.Mesh ~nx:2 ~ny:1) ~pins_per_fpga:2
  in
  let res = Resource.create sys in
  let src = Ids.Fpga.of_int 0 and dst = Ids.Fpga.of_int 1 in
  let c = List.hd (System.in_channels sys dst) in
  let wait = 60 in
  for rslot = 1 to wait do
    Resource.reserve res ~channel:c.System.channel_index ~rslot
  done;
  let r =
    reference ~forward:false ~order:Fun.id sys res ~src ~dst ~anchor:0
      ~max_extra:100
  in
  let log = Pathfind.log () in
  let p = Pathfind.search ~log sys res ~src ~dst ~r_arr:0 ~max_extra:100 in
  Alcotest.(check bool) "same path" true (p = r.rr_path);
  Alcotest.(check int) "latency past the wall" (wait + 1)
    (match p with Some p -> p.Pathfind.p_len | None -> -1);
  Alcotest.(check int) "one deepening round per blocked slot" wait
    log.Pathfind.l_rounds;
  Alcotest.(check bool) "expansions stay linear in the wait" true
    (log.Pathfind.l_expanded <= r.rr_expanded)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "r_limit exhaustion matches the reference" `Quick
      test_exhaustion;
    Alcotest.test_case "deepening resumes instead of restarting" `Quick
      test_deepening_linear;
  ]

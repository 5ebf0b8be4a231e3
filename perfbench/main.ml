(* The repository benchmark.  One run measures one workload:

     perfbench/main.exe --workload cold_paper|edit_loop|serve_mix
                        --seed N --seconds S --trace 0|1

   and prints, as its last line, one JSON object with the keys correct,
   attempted, failed and metrics.  An untraced run reports the end-to-end
   metrics; a traced run re-creates the pipeline call by call inside
   spans and reports the per-layer metrics.  perfbench/README.md says why
   each workload exists and which layer metric should move which
   end-to-end metric. *)

open Msched_netlist
module DG = Msched_gen.Design_gen
module Compile = Msched.Compile
module Schedule = Msched_route.Schedule
module Reroute = Msched_route.Reroute
module Edit = Msched_delta.Edit
module Diff = Msched_delta.Diff
module Partition = Msched_partition.Partition
module Transport = Msched_server.Transport
module Dispatch = Msched_server.Dispatch
module Server = Msched_server.Server
module Sink = Msched_obs.Sink
module Json = Msched_diag.Diag.Json

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- Statistics. ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- Arguments. ---- *)

type workload = Cold_paper | Edit_loop | Serve_mix

let workload_of_name = function
  | "cold_paper" -> Some Cold_paper
  | "edit_loop" -> Some Edit_loop
  | "serve_mix" -> Some Serve_mix
  | _ -> None

type args = { workload : workload; seed : int; seconds : int; trace : bool }

let usage () =
  prerr_endline
    "usage: main.exe --workload cold_paper|edit_loop|serve_mix --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := workload_of_name v;
        if !workload = None then usage ();
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := int_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace :=
          (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0 ->
      { workload; seed; seconds; trace }
  | _ -> usage ()

(* ---- Operation accounting.  An operation fails when it ends in a
   structured E_* diagnostic or fails its output check. ---- *)

let attempted = ref 0
let failed = ref 0
let notes = ref []

let note fmt = Printf.ksprintf (fun m -> notes := m :: !notes) fmt

let failure fmt =
  Printf.ksprintf
    (fun m ->
      incr failed;
      if !failed <= 10 then note "FAIL %s" m)
    fmt

(* Run one operation; an exception is its structured diagnostic. *)
let attempt label f =
  incr attempted;
  match f () with
  | r -> Some r
  | exception e ->
      failure "%s: %s" label
        (Format.asprintf "%a" Msched_diag.Diag.pp (Compile.diag_of_exn e));
      None

let check label ok = if not ok then failure "%s: output check failed" label

(* ---- Inputs: a pure function of the seed. ---- *)

let paper_scale = 0.25

(* Untraced runs repeat every timed phase this many times, the phases
   interleaved so that an operation's repetitions lie a whole pass apart.
   A cold compile keeps its best time; the times of edits and of served
   requests are pooled over the passes. *)
let untraced_passes = 3

type plan = {
  paper_pairs : int;
      (** design1_like + design2_like pairs compiled cold, each from its
          own seed; several pairs keep one design's structure from
          dominating the spread. *)
  edit_scale : float;  (** design1_like scale of the edit chain's base. *)
  side_edits : bool;
      (** The edit chain is a side loop: its base design is the same for
          every seed (only the edits are seeded), which keeps a small
          design's structure from dominating its spread. *)
  edits : int;
  side_requests : bool;
      (** The request mix is a side loop, generated from a fixed seed for
          the same reason. *)
  requests : int;
  serve_rounds : int;  (** Passes of the request mix per pass. *)
}

(* The workload's own operation counts scale with [--seconds] (nominal at
   30 s, never below the count at 30 s divided by three).  The side loops
   that let every workload report every end-to-end metric stay fixed: 100
   requests of the same mix and a 40-edit chain.  A traced run skips them. *)
let plan ~trace workload seconds =
  let scaled n = max (max 1 (n / 3)) (n * seconds / 30) in
  let side n = if trace then 0 else n in
  match workload with
  | Cold_paper ->
      {
        paper_pairs = scaled 3;
        edit_scale = 0.02;
        side_edits = true;
        edits = side 40;
        side_requests = true;
        requests = side 100;
        serve_rounds = 2;
      }
  | Edit_loop ->
      {
        paper_pairs = 0;
        edit_scale = 0.03;
        side_edits = false;
        edits = scaled 100;
        side_requests = true;
        requests = side 100;
        serve_rounds = 2;
      }
  | Serve_mix ->
      {
        paper_pairs = 0;
        edit_scale = 0.02;
        side_edits = true;
        edits = side 40;
        side_requests = false;
        requests = scaled 300;
        serve_rounds = 1;
      }

let rng seed salt = Random.State.make [| seed; salt |]

(* The [j]-th fresh design of generator family [family] (0-8), in the
   shared spec grammar.  Sizes step through a fixed small-to-medium grid of
   [grid] points, so every seed sends the same size mix; the seed picks
   the generator seeds. *)
let grid = 5

let request_spec st ~family j =
  let s = Random.State.int st 1_000_000 in
  let pick sizes = sizes.(j mod grid) in
  match family with
  | 0 -> "fig1"
  | 1 -> "fig3"
  | 2 -> "handshake"
  | 3 ->
      let domains, modules, mts =
        pick [| (2, 8, 0.1); (3, 24, 0.2); (2, 40, 0.3); (4, 16, 0.15); (3, 60, 0.25) |]
      in
      Printf.sprintf "random:domains=%d,modules=%d,mts=%.2f,seed=%d" domains modules
        mts s
  | 4 ->
      Printf.sprintf "design1:scale=%.3f,seed=%d"
        (pick [| 0.01; 0.02; 0.03; 0.05; 0.08 |])
        s
  | 5 ->
      Printf.sprintf "design2:scale=%.3f,seed=%d"
        (pick [| 0.01; 0.02; 0.03; 0.045; 0.06 |])
        s
  | 6 -> Printf.sprintf "gals:islands=%d,seed=%d" (pick [| 2; 3; 4; 6; 8 |]) s
  | 7 ->
      let domains, density = pick [| (4, 0.2); (6, 0.3); (8, 0.4); (12, 0.1); (10, 0.2) |] in
      Printf.sprintf "dense:domains=%d,density=%.2f,seed=%d" domains density s
  | _ -> Printf.sprintf "fabric:banks=%d,seed=%d" (pick [| 2; 3; 4; 6; 8 |]) s

let shuffle st a lo hi =
  for i = hi - 1 downto lo + 1 do
    let j = lo + Random.State.int st (i - lo + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The request order.  Two positions in every five repeat an earlier
   design (40%), shuffled by the seed within blocks of ten.  Fresh designs
   run through all nine families once, then cycle the six parameterised
   ones through their size grids.  The r-th repeat re-sends a seeded pick
   among the designs of one (family, size) class, the classes taken in
   turn, so every seed sends the same mix of families and sizes. *)
let request_specs ~seed n =
  let st = rng seed 3 in
  let repeat = Array.init n (fun i -> i mod 5 = 1 || i mod 5 = 3) in
  for b = 0 to (n - 1) / 10 do
    shuffle st repeat (10 * b) (min n ((10 * b) + 10))
  done;
  let by_class = Hashtbl.create 64 and sent = ref [] in
  let fresh = ref 0 and repeats = ref 0 in
  let draw l = List.nth l (Random.State.int st (List.length l)) in
  Array.map
    (fun is_repeat ->
      if is_repeat && !sent <> [] then begin
        let cls = (3 + (!repeats mod 6), !repeats / 6 mod grid) in
        incr repeats;
        draw (Option.value ~default:!sent (Hashtbl.find_opt by_class cls))
      end
      else begin
        let k = !fresh in
        incr fresh;
        let family, j = if k < 9 then (k, 0) else (3 + ((k - 9) mod 6), (k - 9) / 6) in
        let s = request_spec st ~family j in
        let cls = (family, j mod grid) in
        Hashtbl.replace by_class cls
          (s :: Option.value ~default:[] (Hashtbl.find_opt by_class cls));
        sent := s :: !sent;
        s
      end)
    repeat

let text_of_spec spec =
  match DG.of_spec spec with
  | Ok d -> Serial.to_string d.DG.netlist
  | Error d ->
      failwith
        (Format.asprintf "generator spec %s: %a" spec Msched_diag.Diag.pp d)

(* One step of the edit chain: the kind and the seed that make it apply. *)
type edit_step = { kind : Edit.kind; edit_seed : int }

let apply_step nl step =
  match Edit.apply ~seed:step.edit_seed step.kind nl with
  | Ok (nl', desc) -> (nl', desc)
  | Error msg -> failwith msg

(* Cumulative single edits cycling through the five kinds, with their
   descriptions.  Runs replay the steps from the base netlist. *)
let edit_chain ~seed base n =
  let kinds = Array.of_list Edit.all_kinds in
  let nl = ref base in
  Array.init n (fun i ->
      let kind = kinds.(i mod Array.length kinds) in
      let rec try_seed j =
        if j >= 16 then
          failwith (Printf.sprintf "edit %d (%s) never applies" i (Edit.kind_name kind))
        else
          let step = { kind; edit_seed = (seed * 7919) + (i * 31) + j } in
          match apply_step !nl step with
          | nl', desc ->
              nl := nl';
              (step, desc)
          | exception Failure _ -> try_seed (j + 1)
      in
      try_seed 0)

(* Replays [steps] on [base], calling [f i step nl] with each edited
   netlist. *)
let replay_chain base steps f =
  ignore
    (Array.fold_left
       (fun (i, nl) step ->
         let nl, _ = apply_step nl step in
         f i step nl;
         (i + 1, nl))
       (0, base) steps)

type inputs = {
  paper : (string * string) list;  (** Label and netlist text. *)
  edit_base : Netlist.t;
  edits : edit_step array;
  requests : string array;  (** Request texts in send order. *)
  distinct_requests : string list;
  digest : string;
}

let gen_inputs ~seed plan =
  let paper =
    List.concat
      (List.init plan.paper_pairs (fun j ->
           let seed = (seed * 16) + j in
           [
             ( Printf.sprintf "design1_like seed %d" seed,
               Serial.to_string (DG.design1_like ~seed ~scale:paper_scale ()).DG.netlist );
             ( Printf.sprintf "design2_like seed %d" seed,
               Serial.to_string (DG.design2_like ~seed ~scale:paper_scale ()).DG.netlist );
           ]))
  in
  let edit_base =
    (DG.design1_like
       ~seed:(if plan.side_edits then 1 else seed)
       ~scale:plan.edit_scale ())
      .DG.netlist
  in
  let chain = edit_chain ~seed edit_base plan.edits in
  let edits = Array.map fst chain in
  let specs =
    request_specs ~seed:(if plan.side_requests then 1 else seed) plan.requests
  in
  let texts = Hashtbl.create 64 in
  let requests =
    Array.map
      (fun spec ->
        match Hashtbl.find_opt texts spec with
        | Some t -> t
        | None ->
            let t = text_of_spec spec in
            Hashtbl.add texts spec t;
            t)
      specs
  in
  let distinct_requests =
    List.sort_uniq compare (Array.to_list requests)
  in
  let b = Buffer.create 4096 in
  List.iter (fun (_, t) -> Buffer.add_string b (Digest.string t)) paper;
  Buffer.add_string b (Digest.string (Serial.to_string edit_base));
  Array.iter (fun (_, desc) -> Buffer.add_string b desc) chain;
  Array.iter (fun t -> Buffer.add_string b (Digest.string t)) requests;
  {
    paper;
    edit_base;
    edits;
    requests;
    distinct_requests;
    digest = Digest.to_hex (Digest.string (Buffer.contents b));
  }

(* ---- Host record and load cap. ---- *)

let nproc = Domain.recommended_domain_count ()
let clients = min 2 nproc
let workers = min 2 nproc

let assert_cap what n =
  if n > nproc then failwith (Printf.sprintf "%s=%d exceeds nproc=%d" what n nproc)

(* ---- Scratch space inside the checkout. ---- *)

let work_dir = Filename.concat ".perfbench_work" (string_of_int (Unix.getpid ()))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let cache_counter = ref 0

let fresh_cache_dir () =
  incr cache_counter;
  let d = Filename.concat work_dir (Printf.sprintf "cache-%d" !cache_counter) in
  mkdir_p d;
  d

(* ---- The server and its closed-loop clients. ---- *)

let start_server ~workers =
  assert_cap "server workers" workers;
  Transport.start
    {
      Transport.default_config with
      Transport.t_address = Transport.Tcp ("127.0.0.1", 0);
      t_dispatch = { Dispatch.default_config with Dispatch.d_workers = workers };
      t_settings =
        { Server.default_settings with Server.s_cache_dir = Some (fresh_cache_dir ()) };
    }

let stop_server srv =
  Transport.request_shutdown srv `Drain;
  Transport.wait srv

type served = {
  wall : float;
  latency : float array;  (** Per request, measured at the client. *)
  sent_at : float array;
  responses : string array;
}

(* [clients] connections, each sending its next request only after the
   previous response arrived; requests are taken in order from one shared
   cursor. *)
let serve_loop srv requests =
  assert_cap "client connections" clients;
  let port =
    match Transport.bound_address srv with
    | Transport.Tcp (_, p) -> p
    | Transport.Unix_path _ -> assert false
  in
  let n = Array.length requests in
  let latency = Array.make n 0.0 and sent_at = Array.make n 0.0 in
  let responses = Array.make n "" in
  let cursor = ref 0 and lock = Mutex.create () in
  let take () =
    Mutex.lock lock;
    let i = !cursor in
    incr cursor;
    Mutex.unlock lock;
    if i < n then Some i else None
  in
  let client () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let buf = Bytes.create 65536 in
    let carry = Buffer.create 65536 in
    let rec recv_line () =
      let s = Buffer.contents carry in
      match String.index_opt s '\n' with
      | Some i ->
          Buffer.clear carry;
          Buffer.add_string carry (String.sub s (i + 1) (String.length s - i - 1));
          String.sub s 0 i
      | None -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> failwith "server closed the connection"
          | k ->
              Buffer.add_subbytes carry buf 0 k;
              recv_line ())
    in
    let rec loop () =
      match take () with
      | None -> ()
      | Some i ->
          let req = Printf.sprintf "{\"text\":%s}\n" (Json.string requests.(i)) in
          let t0 = now () in
          let rec write off =
            if off < String.length req then
              write (off + Unix.write_substring fd req off (String.length req - off))
          in
          write 0;
          responses.(i) <- recv_line ();
          latency.(i) <- now () -. t0;
          sent_at.(i) <- t0;
          loop ()
    in
    loop ()
  in
  let t0 = now () in
  let threads = List.init clients (fun _ -> Thread.create client ()) in
  List.iter Thread.join threads;
  { wall = now () -. t0; latency; sent_at; responses }

(* ---- Results gathered by the phases. ---- *)

let speeds = ref []  (* est_speed_hz of every schedule produced *)

let add r x = r := x :: !r

let record_schedule s = add speeds (Schedule.est_speed_hz s)

(* Per-operation best times over the untraced passes. *)
let bests n = Array.make n infinity

let keep_best a i dt = if dt < a.(i) then a.(i) <- dt

(* Untraced compiles and edits are timed with the host-speed correction
   (see host.ml); the totals of wall and corrected times go into the
   notes. *)
let wall_total = ref 0.0
let corrected_total = ref 0.0

let host_timed f =
  let r, dt, cdt = Host.timed f in
  wall_total := !wall_total +. dt;
  corrected_total := !corrected_total +. cdt;
  (r, cdt)

(* ---- Untraced phases.  Each function is one pass; the first pass
   records the schedules' speeds, and every pass checks its outputs. ---- *)

(* Later passes must reproduce the first pass's checked schedules, kept in
   [jsons]. *)
let cold_paper_pass ~seed ~first inputs best jsons =
  List.iteri
    (fun j (label, text) ->
      match
        attempt label (fun () ->
            host_timed (fun () -> Compile.compile (Serial.of_string_exn text)))
      with
      | None -> ()
      | Some (c, dt) ->
          keep_best best j dt;
          let json = Schedule.to_json_string c.Compile.schedule in
          if first then begin
            jsons.(j) <- json;
            record_schedule c.Compile.schedule;
            check label (Checks.cold_ok ~seed c)
          end
          else check label (String.equal json jsons.(j)))
    inputs.paper

(* Each edit is compiled warm.  In the first pass its check is a cold
   compile of the same netlist, timed as a compile_s sample; later passes
   must reproduce the first pass's checked schedules, kept in [jsons]. *)
let edit_pass ~first base inputs ~warm_times ~cold_times jsons =
  let manifest = ref base.Compile.base_manifest in
  replay_chain inputs.edit_base inputs.edits (fun i { kind; _ } nl ->
      let label = Printf.sprintf "edit %d (%s)" i (Edit.kind_name kind) in
      match
        attempt label (fun () ->
            host_timed (fun () -> Compile.compile_delta ~manifest:!manifest nl))
      with
      | None -> ()
      | Some (d, dt) ->
          manifest := d.Compile.delta_manifest;
          add warm_times dt;
          let warm = d.Compile.delta_compiled.Compile.schedule in
          let json = Schedule.to_json_string warm in
          if first then begin
            record_schedule warm;
            jsons.(i) <- json;
            let cold, dtc = host_timed (fun () -> Compile.compile nl) in
            cold_times.(i) <- dtc;
            check label (String.equal json (Schedule.to_json_string cold.Compile.schedule))
          end
          else check label (String.equal json jsons.(i)))

(* In-process reference compiles of the distinct request texts into
   [refs], each timed into [best]. *)
let reference_compiles texts refs best =
  List.iteri
    (fun j text ->
      match host_timed (fun () -> Compile.compile (Serial.of_string_exn text)) with
      | c, dt ->
          keep_best best j dt;
          Hashtbl.replace refs text c.Compile.schedule
      | exception e -> note "reference compile raised %s" (Printexc.to_string e))
    texts

(* Check every response against its reference; returns the count of
   responses the cache answered warm. *)
let check_responses ?(record = true) refs requests served =
  let warm = ref 0 in
  Array.iteri
    (fun i text ->
      incr attempted;
      match
        Option.bind (Hashtbl.find_opt refs text) (fun reference ->
            Checks.response_ok ~reference served.responses.(i))
      with
      | Some (cache, hz) ->
          if cache = "warm" then incr warm;
          if record then add speeds hz
      | None ->
          failure "request %d: response %s" i
            (String.sub served.responses.(i) 0
               (min 160 (String.length served.responses.(i)))))
    requests;
  !warm

(* One pass of the request mix against [srv], which it shuts down.  Its
   latencies join [latencies] and its wall time [wall].  A request's
   latency depends on what the other connection's request does
   meanwhile, which changes from pass to pass, so the latencies of all
   passes are pooled rather than reduced to a best per request.

   Both cores are busy while requests are served, and the reference
   task, timed on one core, follows a single pass poorly; the served
   times are corrected afterwards by the run's mean factor instead (see
   [main]).  The reference times around the pass are noted.

   The reference compiles run once, or on every pass when they are the
   workload's compile_s samples. *)
let serve_pass ~first ~timed_refs srv inputs ~latencies ~wall ~ref_best refs =
  Gc.compact ();
  let before = Host.measure 5 in
  let served = serve_loop srv inputs.requests in
  let after = Host.measure 5 in
  let summary = stop_server srv in
  wall := !wall +. served.wall;
  Array.iter (add latencies) served.latency;
  Gc.compact ();
  if first || timed_refs then
    reference_compiles inputs.distinct_requests refs ref_best;
  let warm = check_responses ~record:first refs inputs.requests served in
  note
    "serve pass: %d requests, %d answered warm, wall p50 %.4f s, reference %.4f/%.4f s, \
     peak inflight %d, drain clean %b"
    (Array.length inputs.requests) warm
    (median (Array.to_list served.latency))
    before after
    summary.Transport.sm_counters.Dispatch.c_peak_inflight
    summary.Transport.sm_clean

(* ---- Traced phases. ---- *)

(* Per-operation sink counters, summed over the operations of one kind. *)
let counters : (string, (string, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 4

let add_counters kind sink =
  let tbl =
    match Hashtbl.find_opt counters kind with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 64 in
        Hashtbl.add counters kind t;
        t
  in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    (Sink.counters sink)

let counter kind name =
  match Hashtbl.find_opt counters kind with
  | Some t -> float_of_int (Option.value ~default:0 (Hashtbl.find_opt t name))
  | None -> 0.0

let traced_options () =
  let sink = Sink.create () in
  ({ Compile.default_options with Compile.obs = sink }, sink)

(* A traced cold compile of [nl] as an operation of [kind]. *)
let traced_cold kind nl =
  let options, sink = traced_options () in
  let c, dt = timed (fun () -> Trace.op kind (fun () -> Pipeline.compile ~options nl)) in
  add_counters kind sink;
  (c, dt)

let untraced_times = ref []
let traced_times = ref []
let frame_slots = ref []
let identical = ref true

(* The traced copy must reproduce the untraced schedule byte for byte. *)
let same_as_untraced label a b =
  if not (String.equal (Schedule.to_json_string a) (Schedule.to_json_string b))
  then begin
    identical := false;
    failure "%s: traced schedule differs from the untraced one" label
  end

let traced_print nl =
  ignore (Trace.op "print" (fun () -> Trace.span "netlist.print" (fun () -> Serial.to_string nl)))

let traced_cold_paper ~seed inputs =
  List.iter
    (fun (label, text) ->
      match
        attempt label (fun () ->
            timed (fun () -> Compile.compile (Serial.of_string_exn text)))
      with
      | None -> ()
      | Some (c, dt) ->
          check label (Checks.cold_ok ~seed c);
          let options, sink = traced_options () in
          let tc, tdt =
            timed (fun () ->
                Trace.op "cold" (fun () ->
                    let nl =
                      Trace.span "netlist.parse" (fun () -> Serial.of_string_exn text)
                    in
                    Pipeline.compile ~options nl))
          in
          add_counters "cold" sink;
          add untraced_times dt;
          add traced_times tdt;
          add frame_slots (float_of_int tc.Compile.schedule.Schedule.length);
          same_as_untraced label c.Compile.schedule tc.Compile.schedule;
          traced_print c.Compile.prepared.Compile.original)
    inputs.paper

type delta_stats = {
  mutable reuse : float list;
  reuse_by_kind : (Edit.kind, float list) Hashtbl.t;
  mutable clean_ratio : float list;
}

let delta_stats = { reuse = []; reuse_by_kind = Hashtbl.create 5; clean_ratio = [] }

let traced_edit_loop base inputs =
  let manifest = ref base.Compile.base_manifest in
  replay_chain inputs.edit_base inputs.edits (fun i { kind; _ } nl ->
      let label = Printf.sprintf "edit %d (%s)" i (Edit.kind_name kind) in
      let options, sink = traced_options () in
      match
        attempt label (fun () ->
            Trace.op "edit" (fun () ->
                Pipeline.compile_delta ~options ~manifest:!manifest nl))
      with
      | None -> ()
      | Some d ->
          add_counters "edit" sink;
          manifest := d.Pipeline.manifest;
          let warm = d.Pipeline.compiled.Compile.schedule in
          add frame_slots (float_of_int warm.Schedule.length);
          let ctx = d.Pipeline.ctx in
          let routed = Reroute.reused ctx + Reroute.ripped ctx + Reroute.fresh ctx in
          let reuse = ratio (float_of_int (Reroute.reused ctx)) (float_of_int routed) in
          delta_stats.reuse <- reuse :: delta_stats.reuse;
          Hashtbl.replace delta_stats.reuse_by_kind kind
            (reuse
            :: Option.value ~default:[] (Hashtbl.find_opt delta_stats.reuse_by_kind kind));
          (match d.Pipeline.diff with
          | Some diff ->
              delta_stats.clean_ratio <-
                ratio
                  (float_of_int (Diff.clean_count diff))
                  (float_of_int
                     (Partition.num_blocks
                        d.Pipeline.compiled.Compile.prepared.Compile.partition))
                :: delta_stats.clean_ratio
          | None -> delta_stats.clean_ratio <- 0.0 :: delta_stats.clean_ratio);
          (* One comparison is both checks: warm ≡ cold, and the traced
             copy ≡ the untraced entry point. *)
          let cold, dt = timed (fun () -> Compile.compile nl) in
          same_as_untraced label cold.Compile.schedule warm;
          (* Every fourth edit also gets a traced cold compile: the cold
             expansion count and the trace overhead come from those. *)
          if i mod 4 = 0 then begin
            let tc, tdt = traced_cold "cold" nl in
            same_as_untraced label cold.Compile.schedule tc.Compile.schedule;
            add untraced_times dt;
            add traced_times tdt
          end;
          traced_print nl)

type serve_stats = {
  mutable rps2 : float;
  mutable rps1 : float;
  mutable hit_ratio : float;
  mutable peak_inflight : int;
  mutable run_job : float list;
  mutable overhead : float list;
}

let serve_stats =
  { rps2 = 0.0; rps1 = 0.0; hit_ratio = 0.0; peak_inflight = 0; run_job = []; overhead = [] }

let traced_serve_mix srv2 inputs =
  let served2 = serve_loop srv2 inputs.requests in
  let summary = stop_server srv2 in
  serve_stats.peak_inflight <-
    summary.Transport.sm_counters.Dispatch.c_peak_inflight;
  Array.iteri
    (fun i t0 -> Trace.record_op "request" ~t0 ~t1:(t0 +. served2.latency.(i)))
    served2.sent_at;
  let srv1 = start_server ~workers:1 in
  let served1 = serve_loop srv1 inputs.requests in
  ignore (stop_server srv1);
  let n = float_of_int (Array.length inputs.requests) in
  serve_stats.rps2 <- n /. served2.wall;
  serve_stats.rps1 <- n /. served1.wall;
  let refs = Hashtbl.create 64 in
  List.iter
    (fun text ->
      let nl = Serial.of_string_exn text in
      match timed (fun () -> Compile.compile nl) with
      | exception e -> note "reference compile raised %s" (Printexc.to_string e)
      | c, dt ->
          let tc, tdt = traced_cold "cold" nl in
          same_as_untraced "reference" c.Compile.schedule tc.Compile.schedule;
          add untraced_times dt;
          add traced_times tdt;
          traced_print nl;
          Hashtbl.replace refs text c.Compile.schedule)
    inputs.distinct_requests;
  let warm = check_responses refs inputs.requests served2 in
  ignore (check_responses refs inputs.requests served1);
  serve_stats.hit_ratio <- ratio (float_of_int warm) n;
  (* The request path in-process, call by call, against its own cache. *)
  let cache_dir = fresh_cache_dir () in
  Array.iteri
    (fun i text ->
      let options, sink = traced_options () in
      match
        attempt (Printf.sprintf "run_job %d" i) (fun () ->
            timed (fun () ->
                Trace.op "serve" (fun () -> Pipeline.run_job ~options ~cache_dir text)))
      with
      | None -> ()
      | Some (c, dt) ->
          add_counters "serve" sink;
          add frame_slots (float_of_int c.Compile.schedule.Schedule.length);
          check (Printf.sprintf "run_job %d" i)
            (match Hashtbl.find_opt refs text with
            | Some reference ->
                c.Compile.schedule.Schedule.length = reference.Schedule.length
                && Schedule.est_speed_hz c.Compile.schedule
                   = Schedule.est_speed_hz reference
            | None -> false);
          serve_stats.run_job <- dt :: serve_stats.run_job;
          serve_stats.overhead <- (served2.latency.(i) -. dt) :: serve_stats.overhead)
    inputs.requests

(* ---- Negative controls: each check must be able to fail. ---- *)

let self_test ~seed =
  let naive = Checks.naive_fig3_rejected () in
  let d = DG.design1_like ~seed ~scale:0.01 () in
  let base = Compile.compile_base d.DG.netlist in
  let nl, _ = apply_step d.DG.netlist (fst (edit_chain ~seed d.DG.netlist 1).(0)) in
  let warm = Compile.compile_delta ~manifest:base.Compile.base_manifest nl in
  let cold = Compile.compile nl in
  let perturbed =
    Checks.perturbed_rejected
      ~warm_json:(Schedule.to_json_string warm.Compile.delta_compiled.Compile.schedule)
      ~cold_json:(Schedule.to_json_string cold.Compile.schedule)
  in
  note "negative controls: naive fig3 rejected=%b, perturbed warm rejected=%b" naive
    perturbed;
  naive && perturbed

(* ---- Output. ---- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
  in
  scan ()

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "non-finite metric value"

let print_result ~correct metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct !attempted !failed;
  List.iteri
    (fun i (name, unit, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
        (json_number v) unit)
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let trace_out = ".perfbench_out"

let layer_metrics ~kind =
  let sm = Trace.summarize ~kind in
  let print_sm = Trace.summarize ~kind:"print" in
  let per_op name = ratio (counter kind name) (float_of_int sm.Trace.ops) in
  let searches = counter kind "pathfind.searches" in
  let expansions = counter kind "pathfind.states_expanded" in
  let mean xs = if xs = [] then 0.0 else sum xs /. float_of_int (List.length xs) in
  let med xs = if xs = [] then 0.0 else median xs in
  let s = "s" and count = "count" and r = "ratio" in
  [
    ("netlist.parse_s", s, Trace.per_op sm "netlist.parse");
    ("netlist.print_s", s, Trace.per_op print_sm "netlist.print");
    ("mts.domain_analysis_s", s, Trace.per_op sm "mts.domain_analysis");
    ("mts.transform_s", s, Trace.per_op sm "mts.transform");
    ("mts.latch_analysis_s", s, Trace.per_op sm "mts.latch_analysis");
    ("mts.classify_s", s, Trace.per_op sm "mts.classify");
    ("partition.make_s", s, Trace.per_op sm "partition.make");
    ("partition.blocks", count, per_op "partition.blocks");
    ("place.place_s", s, Trace.per_op sm "place.place");
    ("place.moves_tried", count, per_op "place.moves_tried");
    ( "place.accept_ratio",
      r,
      ratio (counter kind "place.moves_accepted") (counter kind "place.moves_tried") );
    ("place.minor_words", "words", Trace.words_per_op sm "place.place");
    ("route.tiers_s", s, Trace.per_op sm "route.tiers");
    ("route.searches", count, per_op "pathfind.searches");
    ("route.expansions", count, per_op "pathfind.states_expanded");
    ("route.expansions_per_search", r, ratio expansions searches);
    ("route.minor_words", "words", Trace.words_per_op sm "route.tiers");
    ("route.frame_slots", "slots", mean !frame_slots);
    ("check.verify_s", s, Trace.per_op sm "check.verify");
    ("check.links_checked", count, per_op "verify.links_checked");
    ("delta.diff_s", s, Trace.per_op sm "delta.diff");
    ("delta.seed_s", s, Trace.per_op sm "delta.seed");
    ("delta.manifest_s", s, Trace.per_op sm "delta.manifest");
    ("delta.reuse_fraction", r, mean delta_stats.reuse);
  ]
  @ List.map
      (fun k ->
        ( "delta.reuse_fraction." ^ Edit.kind_name k,
          r,
          mean (Option.value ~default:[] (Hashtbl.find_opt delta_stats.reuse_by_kind k)) ))
      Edit.all_kinds
  @ [
      ("delta.blocks_clean_ratio", r, mean delta_stats.clean_ratio);
      ( "delta.warm_expansions",
        count,
        if kind = "edit" then per_op "pathfind.states_expanded" else 0.0 );
      ( "delta.cold_expansions",
        count,
        if kind = "edit" then
          ratio
            (counter "cold" "pathfind.states_expanded")
            (float_of_int (Trace.summarize ~kind:"cold").Trace.ops)
        else 0.0 );
      ("server.run_job_s", s, med serve_stats.run_job);
      ("server.overhead_s", s, med serve_stats.overhead);
      ("server.cache_load_s", s, Trace.per_op sm "server.cache_load");
      ("server.cache_store_s", s, Trace.per_op sm "server.cache_store");
      ("server.cache_hit_ratio", r, serve_stats.hit_ratio);
      ("server.worker_speedup", r, ratio serve_stats.rps2 serve_stats.rps1);
      ("server.peak_inflight", count, float_of_int serve_stats.peak_inflight);
      ("trace.overhead_ratio", r, ratio (sum !traced_times) (sum !untraced_times));
      ("trace.layer_share", r, Trace.layer_share sm);
    ]

let main () =
  let args = parse_args () in
  let plan = plan ~trace:args.trace args.workload args.seconds in
  Printf.printf "host: nproc=%d ocaml=%s OCAMLRUNPARAM=%s clients=%d workers=%d\n%!"
    nproc Sys.ocaml_version
    (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"))
    clients workers;
  mkdir_p work_dir;
  Fun.protect
    ~finally:(fun () ->
      rm_rf work_dir;
      try Unix.rmdir (Filename.dirname work_dir) with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* Set-up: input generation, the edit chain's base compile and server
     start, repeated; the last repetition's state is kept. *)
  let setup_reps = 5 in
  let setup () =
    let inputs = gen_inputs ~seed:args.seed plan in
    let base =
      if plan.edits > 0 then Some (Compile.compile_base inputs.edit_base) else None
    in
    let srv =
      if plan.requests > 0 then Some (start_server ~workers) else None
    in
    (inputs, base, srv)
  in
  (* Only the last repetition's inputs and server are kept. *)
  let rec run_setup i acc =
    let ((inputs, _, srv) as r), _, dt = Host.timed setup in
    let acc = (inputs.digest, dt) :: acc in
    if i = setup_reps then (r, acc)
    else begin
      Option.iter (fun s -> ignore (stop_server s)) srv;
      run_setup (i + 1) acc
    end
  in
  let (inputs, base, srv), reps = run_setup 1 [] in
  let setup_s = median (List.map snd reps) in
  let digests = List.sort_uniq compare (List.map fst reps) in
  let deterministic = List.length digests = 1 in
  Printf.printf
    "inputs: digest=%s seed=%d paper_designs=%d edits=%d requests=%d distinct=%d \
     deterministic=%b\n%!"
    inputs.digest args.seed (List.length inputs.paper) plan.edits plan.requests
    (List.length inputs.distinct_requests) deterministic;
  let controls = self_test ~seed:args.seed in
  let is w = args.workload = w in
  let metrics =
    if not args.trace then begin
      let n_paper = List.length inputs.paper in
      let paper_best = bests n_paper and paper_jsons = Array.make n_paper "" in
      let warm_times = ref [] and cold_times = bests plan.edits in
      let edit_jsons = Array.make plan.edits "" in
      let latencies = ref [] and serve_wall = ref 0.0 in
      let ref_best = bests (List.length inputs.distinct_requests) in
      let refs = Hashtbl.create 64 in
      (* The passes interleave the phases, so each operation's repetitions
         lie a whole pass apart.  Within a pass the serve phase runs
         first: once its server has drained, no server thread shares the
         runtime with the in-process phases.  The small edit side loop
         runs before the paper-scale compiles, whose heap would otherwise
         stay behind it.  Each phase starts after a full major
         collection. *)
      for pass = 1 to untraced_passes do
        let first = pass = 1 in
        Option.iter
          (fun setup_srv ->
            for round = 1 to plan.serve_rounds do
              let first = first && round = 1 in
              let srv = if first then setup_srv else start_server ~workers in
              serve_pass ~first ~timed_refs:(is Serve_mix) srv inputs ~latencies
                ~wall:serve_wall ~ref_best refs
            done)
          srv;
        Option.iter
          (fun base ->
            Gc.compact ();
            edit_pass ~first base inputs ~warm_times ~cold_times edit_jsons)
          base;
        if n_paper > 0 then begin
          Gc.compact ();
          cold_paper_pass ~seed:args.seed ~first inputs paper_best paper_jsons
        end
      done;
      (* An operation that failed has no time. *)
      let finite a = List.filter Float.is_finite (Array.to_list a) in
      let compile_samples =
        match args.workload with
        | Cold_paper -> paper_best
        | Edit_loop -> cold_times
        | Serve_mix -> ref_best
      in
      let compile_samples = finite compile_samples in
      (* The served times take the mean host-speed factor of the run's
         compiles and edits: it follows the host's level over minutes,
         which a single served pass cannot show. *)
      let factor = ratio !corrected_total !wall_total in
      let edits = !warm_times and lat = List.map (fun l -> l *. factor) !latencies in
      note
        "samples: compile_s=%d (best of %d passes) edits=%d (%d passes pooled) \
         requests=%d (%d passes pooled) schedules=%d"
        (List.length compile_samples) untraced_passes (List.length edits) untraced_passes
        (List.length lat) (untraced_passes * plan.serve_rounds) (List.length !speeds);
      let deciles xs =
        String.concat " "
          (List.map (fun p -> Printf.sprintf "%.4f" (percentile p xs))
             [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ])
      in
      note "host: %.3f s of timed operations took %.3f s of wall time"
        !corrected_total !wall_total;
      note "edit deciles (s): %s" (deciles edits);
      note "serve latency deciles (s): %s" (deciles lat);
      [
        ("compile_s", "s", sum compile_samples);
        ("edit_p50_s", "s", median edits);
        ("edit_p90_s", "s", percentile 0.9 edits);
        ("serve_rps", "1/s", float_of_int (List.length lat) /. (!serve_wall *. factor));
        ("serve_p50_s", "s", median lat);
        ("serve_p90_s", "s", percentile 0.9 lat);
        ("emu_speed_hz", "Hz", geomean !speeds);
        ("peak_rss_mb", "MB", peak_rss_mb ());
        ("setup_s", "s", setup_s);
      ]
    end
    else begin
      Trace.enabled := true;
      let kind =
        match args.workload with
        | Cold_paper ->
            traced_cold_paper ~seed:args.seed inputs;
            "cold"
        | Edit_loop ->
            traced_edit_loop (Option.get base) inputs;
            "edit"
        | Serve_mix ->
            traced_serve_mix (Option.get srv) inputs;
            "serve"
      in
      Trace.enabled := false;
      mkdir_p trace_out;
      let path =
        Filename.concat trace_out
          (Printf.sprintf "trace-%s-seed%d.json"
             (match args.workload with
             | Cold_paper -> "cold_paper"
             | Edit_loop -> "edit_loop"
             | Serve_mix -> "serve_mix")
             args.seed)
      in
      Trace.write_json path;
      note "trace: %d spans written to %s; traced schedules byte-identical=%b"
        (List.length (Trace.all ())) path !identical;
      layer_metrics ~kind
    end
  in
  List.iter print_endline (List.rev !notes);
  print_result ~correct:(!failed = 0 && controls && deterministic && !identical) metrics

let () = main ()

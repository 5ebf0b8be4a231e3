(* The traced run's copies of [Compile.prepare], [Compile.compile_prepared],
   [Compile.compile_delta] and the per-request part of [Server.run_job],
   rebuilt call by call from the library's public functions so each call
   sits inside its own span.  They must stay step-for-step equal to the
   originals: the benchmark asserts that the schedules they produce are
   byte-identical to the untraced entry points'. *)

open Msched_netlist
module Compile = Msched.Compile
module Domain_analysis = Msched_mts.Domain_analysis
module Transform = Msched_mts.Transform
module Latch_analysis = Msched_mts.Latch_analysis
module Classify = Msched_mts.Classify
module Partition = Msched_partition.Partition
module Placement = Msched_place.Placement
module Topology = Msched_arch.Topology
module System = Msched_arch.System
module Reroute = Msched_route.Reroute
module Manifest = Msched_delta.Manifest
module Diff = Msched_delta.Diff
module Fingerprint = Msched_delta.Fingerprint
module Cache = Msched_server.Cache
module Verify = Msched_check.Verify

let span = Trace.span

let prepare ~(options : Compile.options) original =
  let obs = options.Compile.obs in
  let analysis0 =
    span "mts.domain_analysis" @@ fun () ->
    Domain_analysis.compute ~obs original
  in
  (match Transform.check_supported original analysis0 with
  | Ok () -> ()
  | Error msg -> failwith ("unsupported design: " ^ msg));
  let rewritten =
    span "mts.transform" @@ fun () ->
    Transform.master_slave ~obs original analysis0
  in
  let netlist = rewritten.Transform.netlist in
  let analysis =
    span "mts.domain_analysis" @@ fun () -> Domain_analysis.compute ~obs netlist
  in
  let partition =
    span "partition.make" @@ fun () ->
    let p =
      Partition.make ~obs netlist ~max_weight:options.Compile.max_block_weight
        ~seed:options.Compile.partition_seed ()
    in
    (match Partition.validate p with
    | Ok () -> ()
    | Error msg -> failwith ("invalid partition: " ^ msg));
    p
  in
  let system =
    System.make ~vclock_hz:options.Compile.vclock_hz
      (Topology.make_for_count options.Compile.topology_kind
         (Partition.num_blocks partition))
      ~pins_per_fpga:options.Compile.pins_per_fpga
  in
  let placement =
    span "place.place" @@ fun () ->
    Placement.place partition system ~seed:options.Compile.place_seed
      ~effort:options.Compile.place_effort ~obs
      ~jobs:options.Compile.compile_jobs ()
  in
  let latch_analysis =
    span "mts.latch_analysis" @@ fun () -> Latch_analysis.analyze ~obs partition
  in
  let classification =
    span "mts.classify" @@ fun () -> Classify.compute ~obs partition analysis
  in
  {
    Compile.original;
    netlist;
    rewrites = rewritten.Transform.rewrites;
    analysis;
    partition;
    system;
    placement;
    latch_analysis;
    classification;
  }

let compile_prepared ~(options : Compile.options) ?reroute prepared =
  let obs = options.Compile.obs in
  let schedule =
    span "route.tiers" @@ fun () ->
    Compile.route ~obs ?reroute ~jobs:options.Compile.compile_jobs prepared
      options.Compile.route
  in
  if options.Compile.verify then begin
    let report =
      span "check.verify" @@ fun () ->
      Compile.verify_schedule ~obs prepared schedule
    in
    if not (Verify.is_clean report) then
      failwith
        (Format.asprintf "schedule fails static verification:@\n%a"
           Verify.pp_report report)
  end;
  { Compile.prepared; schedule }

let compile ~options nl = compile_prepared ~options (prepare ~options nl)

(* [Compile.compile_delta], with the context kept so the caller can read
   its reuse statistics. *)
type delta = {
  compiled : Compile.compiled;
  manifest : Manifest.t;
  diff : Diff.t option;
  ctx : Reroute.t;
}

let compile_delta ~(options : Compile.options) ~manifest nl =
  let options_fp = Compile.options_fingerprint options in
  let finish ?diff ctx compiled =
    let prepared = compiled.Compile.prepared in
    let manifest =
      span "delta.manifest" @@ fun () ->
      Manifest.build ~options_fp
        ~design_fp:(Fingerprint.design prepared.Compile.original)
        prepared.Compile.placement ~analysis:prepared.Compile.analysis ~ctx
    in
    { compiled; manifest; diff; ctx }
  in
  let cold prepared =
    let ctx = Reroute.create ~exact:true () in
    finish ctx (compile_prepared ~options ~reroute:ctx prepared)
  in
  let prepared = prepare ~options nl in
  if not (String.equal manifest.Manifest.options_fp options_fp) then cold prepared
  else
    match
      span "delta.diff" @@ fun () ->
      Diff.compute ~manifest prepared.Compile.placement
        ~analysis:prepared.Compile.analysis
    with
    | None -> cold prepared
    | Some diff -> (
        let s =
          span "delta.seed" @@ fun () ->
          Diff.seed ~manifest ~diff prepared.Compile.placement
        in
        match compile_prepared ~options ~reroute:s.Diff.ctx prepared with
        | compiled -> finish ~diff s.Diff.ctx compiled
        | exception (Msched_route.Tiers.Unroutable _ | Failure _) -> cold prepared)

(* The request path of [Server.run_job] for a design whose baseline
   attempt succeeds: cache key and load, parse, lint, compile under the
   loaded reroute context, cache store. *)
let run_job ~(options : Compile.options) ~cache_dir text =
  let key, ctx =
    span "server.cache_load" @@ fun () ->
    let key = Cache.key ~text ~options in
    match Cache.load ~dir:cache_dir ~key with
    | Cache.Hit ctx -> (key, ctx)
    | Cache.Miss -> (key, Reroute.create ())
    | Cache.Corrupt d -> failwith (Format.asprintf "%a" Msched_diag.Diag.pp d)
  in
  let nl =
    span "netlist.parse" @@ fun () ->
    match Serial.of_string_diag text with
    | Ok nl -> nl
    | Error _ -> failwith "request text does not parse"
  in
  (match Lint.errors (span "netlist.lint" @@ fun () -> Lint.check nl) with
  | [] -> ()
  | _ -> failwith "request text has lint errors");
  let compiled =
    compile_prepared ~options ~reroute:ctx (prepare ~options nl)
  in
  (match
     span "server.cache_store" @@ fun () -> Cache.store ~dir:cache_dir ~key ctx
   with
  | Ok () -> ()
  | Error d -> failwith (Format.asprintf "%a" Msched_diag.Diag.pp d));
  compiled

(* Old-vs-new differential for the router: [msched explain --json] minus
   its [phases] timing key, byte for byte, against documents recorded by
   the search that predates the goal-directed core (the unbounded layered
   BFS).  Any change to the search must leave these schedules — length,
   critical chain and per-channel occupancy — untouched, in both MTS
   modes.  A deliberate output change regenerates the files with
   [msched explain SPEC --mode MODE --json FILE] and drops the trailing
   [phases] key, and says why in the change. *)

module Compile = Msched.Compile
module Tiers = Msched_route.Tiers
module Explain = Msched_explain.Explain
module Design_gen = Msched_gen.Design_gen

let specs =
  [
    "design1:scale=0.25";
    "design2:scale=0.25";
    "fig3";
    "gals:islands=8";
    "dense:domains=8,density=0.4";
    "fabric:banks=4";
  ]

let modes = [ ("virtual", Tiers.default_options); ("hard", Tiers.hard_options) ]

let file_of spec mode =
  let name = String.map (function ':' | '=' | ',' -> '_' | c -> c) spec in
  (* Beside the test executable, where dune copies the [golden] tree. *)
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ "golden"; "explain"; Printf.sprintf "%s.%s.json" name mode ]

let read path = In_channel.with_open_bin path In_channel.input_all

(* The CLI's defaults: --pins 240 --weight 64. *)
let explain_json spec route =
  let nl =
    match Design_gen.of_spec spec with
    | Ok d -> d.Design_gen.netlist
    | Error d -> Alcotest.failf "%s: %a" spec Msched_diag.Diag.pp d
  in
  let options =
    {
      Compile.default_options with
      Compile.pins_per_fpga = 240;
      max_block_weight = 64;
    }
  in
  let prepared = Compile.prepare ~options nl in
  let sched = Compile.route prepared route in
  Explain.to_json (Explain.analyze ~route ~design:spec prepared sched) ^ "\n"

let test_spec spec () =
  List.iter
    (fun (mode, route) ->
      Alcotest.(check string)
        (Printf.sprintf "%s %s: explain JSON byte-identical" spec mode)
        (read (file_of spec mode))
        (explain_json spec route))
    modes

let suite =
  List.map
    (fun spec ->
      Alcotest.test_case ("golden explain " ^ spec) `Quick (test_spec spec))
    specs

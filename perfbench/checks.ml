(* Output checks, run outside every timed window.  None of them trusts the
   compiler's own verdict alone: a cold paper compile is re-verified and
   co-simulated against the reference simulator, a warm edit is compared
   byte for byte with a cold compile, and a served response is compared
   with an in-process compile of the same text.  [self_test] shows that
   each comparison can fail. *)

open Msched_netlist
module Compile = Msched.Compile
module Schedule = Msched_route.Schedule
module Tiers = Msched_route.Tiers
module Verify = Msched_check.Verify
module Fidelity = Msched_sim.Fidelity
module Async_gen = Msched_clocking.Async_gen
module Json = Msched_diag.Diag.Json

let verify_clean (prepared : Compile.prepared) sched =
  Verify.is_clean (Compile.verify_schedule prepared sched)

(* Single-edge lock-step co-simulation; [compare_frames] would tolerate
   transient mismatches by construction, so it is not used. *)
let fidelity_perfect ?(horizon_ps = 250_000) ~seed (prepared : Compile.prepared)
    sched =
  let clocks =
    Async_gen.clocks ~seed (Netlist.domains prepared.Compile.netlist)
  in
  Fidelity.perfect
    (Fidelity.compare_run prepared.Compile.placement sched ~clocks ~horizon_ps
       ~seed ())

(* A cold compile: clean under the static verifier and perfect against the
   reference simulator. *)
let cold_ok ~seed (c : Compile.compiled) =
  verify_clean c.Compile.prepared c.Compile.schedule
  && fidelity_perfect ~seed c.Compile.prepared c.Compile.schedule

(* A served response against the in-process reference compile of the same
   text: exit code 0, status "ok", and the final attempt's length and
   estimated speed equal to the reference schedule's.  Returns the
   response's cache status and est_speed_hz. *)
let response_ok ~(reference : Schedule.t) line =
  let ( let* ) = Option.bind in
  let* doc = Result.to_option (Json.parse line) in
  let* exit_code = Option.bind (Json.mem "exit_code" doc) Json.int in
  let* cache = Option.bind (Json.mem "cache" doc) Json.str in
  let* result = Json.mem "result" doc in
  let* status = Option.bind (Json.mem "status" result) Json.str in
  let* attempts = Option.bind (Json.mem "attempts" result) Json.arr in
  let* last = List.nth_opt attempts (List.length attempts - 1) in
  let* length = Option.bind (Json.mem "length" last) Json.int in
  let* hz = Option.bind (Json.mem "est_speed_hz" last) Json.num in
  let ref_hz =
    float_of_string (Printf.sprintf "%.6g" (Schedule.est_speed_hz reference))
  in
  if
    exit_code = 0 && status = "ok"
    && length = reference.Schedule.length
    && Float.equal hz ref_hz
  then Some (cache, hz)
  else None

(* Negative controls.  [fig3] routed naively (no MTS hold-offs) must be
   rejected by both the verifier and the co-simulation.  Split over blocks
   of weight 6, its first hold hazard shows within 2 us of simulated time
   for stimulus seed 42 (and for seeds 3 and 7). *)
let naive_fig3_rejected () =
  let options = { Compile.default_options with Compile.max_block_weight = 6 } in
  let prepared =
    Compile.prepare ~options (Msched_gen.Design_gen.fig3_latch ()).netlist
  in
  let sched = Compile.route prepared Tiers.naive_options in
  (not (verify_clean prepared sched))
  && not (fidelity_perfect ~horizon_ps:2_000_000 ~seed:42 prepared sched)

let perturb s =
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
  Bytes.to_string b

(* warm ≡ cold holds for an unperturbed warm schedule and fails once one
   byte of it changes. *)
let perturbed_rejected ~warm_json ~cold_json =
  String.equal warm_json cold_json
  && not (String.equal (perturb warm_json) cold_json)

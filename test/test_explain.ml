(* Schedule explainability (ISSUE 7 tentpole suite).

   The critical-chain extractor replays the TIERS requirement propagation
   with provenance backpointers; its contract is sharp enough to test
   structurally:

   - the chain is {e exact} for every TIERS-compiled schedule: the replayed
     length equals [Schedule.length], the first hop starts at slot 0, the
     last ends at [length], and every hop starts where the previous ended
     (dependency contiguity) — across seeded workload families, both
     routing modes, and random multi-domain designs (qcheck);
   - explain output is byte-deterministic: two independent compiles of the
     same seeded design render identical [msched-explain-1] documents;
   - the occupancy matrix column peaks agree with the schedule's own
     [peak_channel_usage] accounting;
   - phase attribution does exact Amdahl arithmetic on a fake clock, and
     [Sink.annotate] lands args on the innermost open span;
   - the bench regression gate passes on identical documents and fails on
     each injected regression class (slower span, longer frame, dirty
     verifier, vanished metric) while tolerating benign wall-clock noise. *)

module Design_gen = Msched_gen.Design_gen
module Tiers = Msched_route.Tiers
module Schedule = Msched_route.Schedule
module Sink = Msched_obs.Sink
module Explain = Msched_explain.Explain
module Baseline = Msched_explain.Baseline

let compile ?(weight = 48) ?(route = Tiers.default_options) nl =
  let options =
    { Msched.Compile.default_options with Msched.Compile.max_block_weight = weight }
  in
  let prepared = Msched.Compile.prepare ~options nl in
  let sched = Msched.Compile.route prepared route in
  (prepared, sched)

let check_chain label route prepared sched =
  let chain = Explain.critical_chain ~route prepared sched in
  Alcotest.(check bool)
    (label ^ ": chain is exact (replayed length = schedule length)")
    true chain.Explain.ch_exact;
  Alcotest.(check int)
    (label ^ ": chain length") sched.Schedule.length chain.Explain.ch_length;
  (match chain.Explain.ch_hops with
  | [] -> Alcotest.fail (label ^ ": chain has no hops")
  | first :: _ ->
      Alcotest.(check int) (label ^ ": first hop starts at 0") 0
        first.Explain.h_from);
  let rec contiguous prev = function
    | [] ->
        Alcotest.(check int)
          (label ^ ": last hop ends at schedule length")
          sched.Schedule.length prev
    | h :: rest ->
        Alcotest.(check int)
          (Printf.sprintf "%s: hop %S starts where the previous ended" label
             h.Explain.h_what)
          prev h.Explain.h_from;
        Alcotest.(check bool)
          (label ^ ": hop does not go backwards")
          true
          (h.Explain.h_to >= h.Explain.h_from);
        contiguous h.Explain.h_to rest
  in
  contiguous 0 chain.Explain.ch_hops;
  chain

let seeded_families () =
  List.iter
    (fun (label, nl) ->
      List.iter
        (fun (mode, route) ->
          let prepared, sched = compile ~route nl in
          ignore (check_chain (label ^ " " ^ mode) route prepared sched))
        [ ("virtual", Tiers.default_options); ("hard", Tiers.hard_options) ])
    [
      ( "gals",
        (Design_gen.of_spec "gals:islands=4,size=2" |> function
         | Ok d -> d.Design_gen.netlist
         | Error _ -> Alcotest.fail "gals spec") );
      ( "dense",
        (Design_gen.of_spec "dense:domains=6,density=0.3" |> function
         | Ok d -> d.Design_gen.netlist
         | Error _ -> Alcotest.fail "dense spec") );
      ( "fabric",
        (Design_gen.of_spec "fabric:banks=4" |> function
         | Ok d -> d.Design_gen.netlist
         | Error _ -> Alcotest.fail "fabric spec") );
      ("design1", (Design_gen.design1_like ~scale:0.05 ()).Design_gen.netlist);
    ]

let prop_random_chains_exact =
  QCheck.Test.make ~name:"random multi-domain chains are exact and contiguous"
    ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let d =
        Design_gen.random_multidomain ~seed ~domains:3 ~modules:6
          ~mts_fraction:0.3 ()
      in
      let route = Tiers.default_options in
      let prepared, sched = compile ~route d.Design_gen.netlist in
      let chain = Explain.critical_chain ~route prepared sched in
      chain.Explain.ch_exact
      && (match chain.Explain.ch_hops with
         | [] -> false
         | first :: _ -> first.Explain.h_from = 0)
      && List.fold_left
           (fun prev h ->
             match prev with
             | None -> None
             | Some p ->
                 if h.Explain.h_from = p && h.Explain.h_to >= p then
                   Some h.Explain.h_to
                 else None)
           (Some 0) chain.Explain.ch_hops
         = Some sched.Schedule.length)

let deterministic_json () =
  let analyze () =
    let nl = (Design_gen.design1_like ~scale:0.05 ()).Design_gen.netlist in
    let prepared, sched = compile nl in
    Explain.to_json (Explain.analyze ~design:"design1" prepared sched)
  in
  let a = analyze () and b = analyze () in
  Alcotest.(check string) "two fresh compiles render identical explain JSON" a b;
  let contains sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "document carries the schema tag" true
    (contains "msched-explain-1" a)

let occupancy_matches_peaks () =
  let nl = (Design_gen.design1_like ~scale:0.05 ()).Design_gen.netlist in
  let prepared, sched = compile nl in
  let oc = Explain.occupancy sched prepared.Msched.Compile.system in
  Alcotest.(check int) "one row per channel"
    (Array.length sched.Schedule.peak_channel_usage)
    (Array.length oc.Explain.oc_matrix);
  Array.iteri
    (fun c row ->
      let peak = Array.fold_left max 0 row in
      Alcotest.(check int)
        (Printf.sprintf "channel %d: matrix column peak = recorded peak" c)
        sched.Schedule.peak_channel_usage.(c)
        peak)
    oc.Explain.oc_matrix;
  Alcotest.(check bool) "wire-slot split covers all multiplexed hops" true
    (oc.Explain.oc_mts_wire_slots + oc.Explain.oc_single_wire_slots
    = Array.fold_left
        (fun acc row -> acc + Array.fold_left ( + ) 0 row)
        0 oc.Explain.oc_matrix)

let attribution_math () =
  let now = ref 0.0 in
  let obs = Sink.create ~clock:(fun () -> !now) () in
  (* root [0,100ms] with child [20,60ms]: root self 60ms, child self 40ms. *)
  Sink.span obs "root" (fun () ->
      now := 0.020;
      Sink.span obs "child" (fun () -> now := 0.060);
      now := 0.100);
  match Explain.attribution obs with
  | None -> Alcotest.fail "attribution missing"
  | Some a ->
      Alcotest.(check int) "wall is the root span" 100_000 a.Explain.at_wall_us;
      Alcotest.(check (option string)) "serial bottleneck is the root's self"
        (Some "root") a.Explain.at_serial;
      let phase name =
        List.find (fun p -> p.Explain.ph_name = name) a.Explain.at_phases
      in
      Alcotest.(check int) "root self excludes the child" 60_000
        (phase "root").Explain.ph_self_us;
      Alcotest.(check int) "child self" 40_000 (phase "child").Explain.ph_self_us;
      let r = phase "root" in
      Alcotest.(check bool) "Amdahl bound of a 0.6 fraction is 2.5" true
        (abs_float (r.Explain.ph_amdahl -. 2.5) < 1e-9)

let annotate_lands_on_open_span () =
  let obs = Sink.create () in
  Sink.span obs "stage" (fun () -> Sink.annotate obs [ ("k", "v") ]);
  Sink.annotate obs [ ("ignored", "no-open-span") ];
  match Sink.spans obs with
  | [ s ] ->
      Alcotest.(check (list (pair string string)))
        "args recorded on the innermost open span" [ ("k", "v") ]
        s.Sink.sp_args
  | _ -> Alcotest.fail "expected exactly one span"

(* ---- Bench regression gate ---- *)

let doc ?(par_identical = true) ?(effort = 8.0) ~span_us ~length ~speed
    ~clean ~extra_counter () =
  Printf.sprintf
    {|{"schema":"msched-bench-pipeline-7",
       "designs":{"d1":{"schema":"msched-obs-1",
         "spans":[{"id":0,"parent":null,"depth":0,"name":"prepare","begin_us":0,"dur_us":%d,"args":{}}],
         "counters":{"work.items":100%s},
         "gauges":{"schedule.length":%d,"schedule.est_speed_hz":%g,"place.wirelength":500},
         "histograms":{}}},
       "driver":{"result":{},"obs":{"schema":"msched-obs-1","spans":[],"counters":{"driver.attempts":1},"gauges":{},"histograms":{}}},
       "batch":{"cores":1},
       "workloads":{"gals":[{"spec":"gals:islands=4,size=2","schedule_length":%d,"est_speed_hz":%g,"verifier_clean":%b}]},
       "par":{"design":"dense:domains=16,density=0.8","cores":1,
         "prepare_wall_s":{"jobs1":0.1,"jobs2":0.2,"jobs4":0.3},
         "route_wall_s":{"jobs1":0.1,"jobs2":0.2,"jobs4":0.3},
         "schedule_identical_1v2":%b,"schedule_identical_1v4":true,
         "placement_identical":true,"schedule_length":%d,"est_speed_hz":%g},
       "scale":{"points":[{"spec":"design1:scale=0.1","expansions_per_search":%g,
         "tiers_s":0.5,"schedule_length":%d,"est_speed_hz":%g}],
         "expansions_growth":2.0}}|}
    span_us extra_counter length speed length speed clean par_identical
    length speed effort length speed

let base_doc =
  doc ~span_us:10_000 ~length:10 ~speed:1e6 ~clean:true ~extra_counter:"" ()

let gate label ~fresh expect_ok =
  match Baseline.compare_runs ~baseline:base_doc ~fresh with
  | Error d -> Alcotest.failf "%s: gate errored: %a" label Msched_diag.Diag.pp d
  | Ok diff ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (regressions: %s)" label
           (String.concat "; "
              (List.map (fun v -> v.Baseline.v_path) diff.Baseline.d_verdicts)))
        expect_ok (Baseline.ok diff)

let gate_verdicts () =
  gate "identical documents pass" ~fresh:base_doc true;
  gate "benign time noise passes"
    ~fresh:(doc ~span_us:30_000 ~length:10 ~speed:1e6 ~clean:true ~extra_counter:"" ())
    true;
  gate "6x slower and >50ms fails"
    ~fresh:(doc ~span_us:70_000 ~length:10 ~speed:1e6 ~clean:true ~extra_counter:"" ())
    false;
  gate "any frame growth fails"
    ~fresh:(doc ~span_us:10_000 ~length:11 ~speed:1e6 ~clean:true ~extra_counter:"" ())
    false;
  gate "any speed loss fails"
    ~fresh:(doc ~span_us:10_000 ~length:10 ~speed:9e5 ~clean:true ~extra_counter:"" ())
    false;
  gate "verifier going dirty fails"
    ~fresh:(doc ~span_us:10_000 ~length:10 ~speed:1e6 ~clean:false ~extra_counter:"" ())
    false;
  (* Parallel widths diverging (schedule no longer byte-identical across
     --compile-jobs) is a Bool equality class: any flip fails. *)
  gate "parallel divergence fails"
    ~fresh:
      (doc ~par_identical:false ~span_us:10_000 ~length:10 ~speed:1e6
         ~clean:true ~extra_counter:"" ())
    false;
  (* Search effort is deterministic: within 1.1x passes, beyond fails
     (wall time in the same section is never compared). *)
  gate "search effort within 1.1x passes"
    ~fresh:
      (doc ~effort:8.5 ~span_us:10_000 ~length:10 ~speed:1e6 ~clean:true
         ~extra_counter:"" ())
    true;
  gate "search effort +20% fails"
    ~fresh:
      (doc ~effort:9.6 ~span_us:10_000 ~length:10 ~speed:1e6 ~clean:true
         ~extra_counter:"" ())
    false;
  (* New metrics never fail; metrics vanishing from the fresh run do. *)
  gate "new metric in fresh run passes"
    ~fresh:
      (doc ~span_us:10_000 ~length:10 ~speed:1e6 ~clean:true
         ~extra_counter:{|,"work.extra":1|} ())
    true;
  (match
     Baseline.compare_runs
       ~baseline:
         (doc ~span_us:10_000 ~length:10 ~speed:1e6 ~clean:true
            ~extra_counter:{|,"work.extra":1|} ())
       ~fresh:base_doc
   with
  | Ok diff ->
      Alcotest.(check bool) "vanished metric fails" false (Baseline.ok diff)
  | Error d -> Alcotest.failf "gate errored: %a" Msched_diag.Diag.pp d);
  (match Baseline.compare_runs ~baseline:{|{"schema":"nope"}|} ~fresh:base_doc with
  | Ok _ -> Alcotest.fail "wrong schema must be rejected"
  | Error d ->
      Alcotest.(check string) "schema mismatch is E_PARSE" "E_PARSE"
        (Msched_diag.Diag.code_name d.Msched_diag.Diag.code))

let gate_roundtrip_on_real_doc () =
  (* The diff's own JSON document parses and carries the verdict. *)
  match Baseline.compare_runs ~baseline:base_doc ~fresh:base_doc with
  | Error d -> Alcotest.failf "gate errored: %a" Msched_diag.Diag.pp d
  | Ok diff -> (
      let json = Baseline.to_json diff in
      match Msched_diag.Diag.Json.parse json with
      | Error e -> Alcotest.failf "diff JSON does not parse: %s" e
      | Ok v ->
          Alcotest.(check (option string)) "schema" (Some "msched-bench-diff-1")
            Option.(bind (Msched_diag.Diag.Json.mem "schema" v)
                      Msched_diag.Diag.Json.str))

let suite =
  [
    Alcotest.test_case "seeded families: chains exact in both modes" `Slow
      seeded_families;
    QCheck_alcotest.to_alcotest prop_random_chains_exact;
    Alcotest.test_case "explain JSON is byte-deterministic" `Quick
      deterministic_json;
    Alcotest.test_case "occupancy matrix matches peak accounting" `Quick
      occupancy_matches_peaks;
    Alcotest.test_case "phase attribution Amdahl arithmetic" `Quick
      attribution_math;
    Alcotest.test_case "Sink.annotate targets the innermost open span" `Quick
      annotate_lands_on_open_span;
    Alcotest.test_case "bench gate verdicts per tolerance class" `Quick
      gate_verdicts;
    Alcotest.test_case "bench gate diff document round-trips" `Quick
      gate_roundtrip_on_real_doc;
  ]

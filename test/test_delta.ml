(* The delta-compilation subsystem, tested the only way that matters:
   differentially.  For every generator family, both MTS routing modes
   and every applicable single-edit mutator, the warm compile against the
   base manifest must produce a schedule byte-identical to a cold compile
   of the edited design ([Schedule.to_json_string] equality) — the
   warm≡cold guarantee docs/DELTA.md argues for.  On top of that:
   identity deltas replay everything, connectivity-preserving edits beat
   the cold compile on search work, doctored manifests fail closed,
   block-granular cache entries degrade (never corrupt) under eviction,
   and the canonical serial form the cache keys on is a byte fixpoint. *)

module Compile = Msched.Compile
module Tiers = Msched_route.Tiers
module Schedule = Msched_route.Schedule
module Verify = Msched_check.Verify
module Serial = Msched_netlist.Serial
module Design_gen = Msched_gen.Design_gen
module Manifest = Msched_delta.Manifest
module Diff = Msched_delta.Diff
module Edit = Msched_delta.Edit
module Fingerprint = Msched_delta.Fingerprint
module Cache = Msched_server.Cache
module Diag = Msched_diag.Diag

let options mode =
  {
    Compile.default_options with
    Compile.route = { Tiers.default_options with Tiers.mode };
    verify = false (* The verifier gets its own dedicated test below. *);
  }

(* The nine generator families, sized for test speed; every family the
   bench and verifier exercise is represented. *)
let families () =
  [
    ("fig1", (Design_gen.fig1 ()).Design_gen.netlist);
    ("fig3_latch", (Design_gen.fig3_latch ()).Design_gen.netlist);
    ("handshake", (Design_gen.handshake ()).Design_gen.netlist);
    ( "random_multidomain",
      (Design_gen.random_multidomain ~seed:11 ~domains:3 ~modules:6
         ~mts_fraction:0.3 ())
        .Design_gen.netlist );
    ( "design1_like",
      (Design_gen.design1_like ~seed:1 ~scale:0.02 ()).Design_gen.netlist );
    ( "design2_like",
      (Design_gen.design2_like ~seed:2 ~scale:0.02 ()).Design_gen.netlist );
    ( "gals_islands",
      (Design_gen.gals_islands ~seed:3 ~islands:4 ()).Design_gen.netlist );
    ( "dense_crossing",
      (Design_gen.dense_crossing ~seed:4 ~domains:8 ~density:0.2 ())
        .Design_gen.netlist );
    ( "gated_memory_fabric",
      (Design_gen.gated_memory_fabric ~seed:5 ~banks:4 ()).Design_gen.netlist );
  ]

(* First seed under which this edit kind applies to this design. *)
let find_edit kind nl =
  let rec go seed =
    if seed > 8 then None
    else
      match Edit.apply ~seed kind nl with
      | Ok (nl', desc) -> Some (nl', desc)
      | Error _ -> go (seed + 1)
  in
  go 0

let schedule_json sched = Schedule.to_json_string sched

(* ---- The differential suite: warm ≡ cold, byte for byte. ---- *)

let test_differential () =
  let comparisons = ref 0 in
  List.iter
    (fun (label, nl) ->
      List.iter
        (fun mode ->
          let options = options mode in
          let base = Compile.compile_base ~options nl in
          List.iter
            (fun kind ->
              match find_edit kind nl with
              | None -> () (* Kind inapplicable to this design: fine. *)
              | Some (edited, desc) -> (
                  let what =
                    Printf.sprintf "%s/%s/%s (%s)" label (Tiers.mode_name mode)
                      (Edit.kind_name kind) desc
                  in
                  match Compile.compile_base ~options edited with
                  | cold ->
                      let delta =
                        Compile.compile_delta ~options
                          ~manifest:base.Compile.base_manifest edited
                      in
                      Alcotest.(check string)
                        (what ^ ": delta schedule == cold schedule")
                        (schedule_json cold.Compile.base_compiled.Compile.schedule)
                        (schedule_json
                           delta.Compile.delta_compiled.Compile.schedule);
                      (* The updated manifest describes the edited design
                         exactly as a cold harvest would. *)
                      Alcotest.(check string)
                        (what ^ ": manifest design fingerprint")
                        cold.Compile.base_manifest.Manifest.design_fp
                        delta.Compile.delta_manifest.Manifest.design_fp;
                      Alcotest.(check (array string))
                        (what ^ ": manifest block fingerprints")
                        cold.Compile.base_manifest.Manifest.block_fps
                        delta.Compile.delta_manifest.Manifest.block_fps;
                      incr comparisons
                  | exception _ -> (
                      (* Cold compile of the edited design fails; the delta
                         compile must fail too, never hand back a schedule
                         a cold compile would refuse. *)
                      match
                        Compile.compile_delta ~options
                          ~manifest:base.Compile.base_manifest edited
                      with
                      | _ ->
                          Alcotest.failf "%s: cold compile failed but delta \
                                          compile succeeded"
                            what
                      | exception _ -> ())))
            Edit.all_kinds)
        [ Tiers.Mts_virtual; Tiers.Mts_hard ])
    (families ());
  Alcotest.(check bool)
    (Printf.sprintf "at least 50 differential comparisons ran (got %d)"
       !comparisons)
    true (!comparisons >= 50)

(* ---- Identity delta: everything replays, nothing is searched. ---- *)

let test_identity_replay () =
  let nl =
    (Design_gen.gals_islands ~seed:9 ~islands:6 ~island_size:6 ())
      .Design_gen.netlist
  in
  let options = options Tiers.Mts_virtual in
  let base = Compile.compile_base ~options nl in
  Alcotest.(check bool) "base has ledger entries" true
    (List.length base.Compile.base_manifest.Manifest.entries > 0);
  Alcotest.(check bool) "base did search work" true
    (base.Compile.base_expansions > 0);
  let delta =
    Compile.compile_delta ~options ~manifest:base.Compile.base_manifest nl
  in
  (match delta.Compile.delta_diff with
  | None -> Alcotest.fail "identity delta fell back cold"
  | Some diff ->
      Alcotest.(check int) "no dirty blocks" 0 (Diff.dirty_count diff);
      Alcotest.(check int) "empty cone" 0 (Diff.cone_size diff));
  Alcotest.(check int) "zero expansions on identity replay" 0
    delta.Compile.delta_expansions;
  Alcotest.(check bool) "everything reused" true
    (delta.Compile.delta_reused > 0 && delta.Compile.delta_fresh = 0);
  Alcotest.(check (float 0.0001)) "reuse fraction 1" 1.0
    (Compile.delta_reuse_fraction delta);
  Alcotest.(check string) "schedule identical"
    (schedule_json base.Compile.base_compiled.Compile.schedule)
    (schedule_json delta.Compile.delta_compiled.Compile.schedule)

(* ---- Single-block edit: warm reuse beats the cold search. ---- *)

let test_reuse_beats_cold () =
  let nl =
    (Design_gen.gals_islands ~seed:9 ~islands:6 ~island_size:6 ())
      .Design_gen.netlist
  in
  let options = options Tiers.Mts_virtual in
  let base = Compile.compile_base ~options nl in
  (* A connectivity-preserving edit keeps the seeded partition stable, so
     the untouched blocks' transports replay.  Scan flip seeds until one
     achieves reuse — the partition is allowed to be globally sensitive
     to some edits, but not to all of them. *)
  let rec scan seed =
    if seed > 19 then
      Alcotest.fail
        "no domain-flip edit achieved any reuse over 20 seeds — the cone \
         or fingerprints regressed"
    else
      match Edit.apply ~seed Edit.Flip_domain nl with
      | Error _ -> scan (seed + 1)
      | Ok (edited, desc) ->
          let cold = Compile.compile_base ~options edited in
          let delta =
            Compile.compile_delta ~options ~manifest:base.Compile.base_manifest
              edited
          in
          Alcotest.(check string)
            (desc ^ ": schedule identical")
            (schedule_json cold.Compile.base_compiled.Compile.schedule)
            (schedule_json delta.Compile.delta_compiled.Compile.schedule);
          if delta.Compile.delta_reused > 0 then begin
            Alcotest.(check bool)
              (Printf.sprintf
                 "%s: warm expansions (%d) strictly below cold (%d)" desc
                 delta.Compile.delta_expansions cold.Compile.base_expansions)
              true
              (delta.Compile.delta_expansions < cold.Compile.base_expansions);
            Alcotest.(check bool)
              (desc ^ ": reuse fraction > 0")
              true
              (Compile.delta_reuse_fraction delta > 0.0)
          end
          else scan (seed + 1)
  in
  scan 0

(* ---- The independent verifier accepts delta schedules. ---- *)

let test_delta_schedule_verifies () =
  let nl =
    (Design_gen.random_multidomain ~seed:21 ~domains:3 ~modules:8
       ~mts_fraction:0.3 ())
      .Design_gen.netlist
  in
  let options = options Tiers.Mts_virtual in
  let base = Compile.compile_base ~options nl in
  List.iter
    (fun kind ->
      match find_edit kind nl with
      | None -> ()
      | Some (edited, desc) ->
          let delta =
            Compile.compile_delta ~options ~manifest:base.Compile.base_manifest
              edited
          in
          let p = delta.Compile.delta_compiled.Compile.prepared in
          let report =
            Verify.verify p.Compile.placement p.Compile.analysis
              delta.Compile.delta_compiled.Compile.schedule
          in
          if not (Verify.is_clean report) then
            Alcotest.failf "%s (%s): delta schedule rejected: %a"
              (Edit.kind_name kind) desc Verify.pp_report report)
    Edit.all_kinds

(* ---- Manifest persistence: roundtrip, checksum, foreign options. ---- *)

let small_manifest () =
  let nl =
    (Design_gen.random_multidomain ~seed:31 ~domains:3 ~modules:6
       ~mts_fraction:0.3 ())
      .Design_gen.netlist
  in
  let options = options Tiers.Mts_virtual in
  (nl, options, Compile.compile_base ~options nl)

let test_manifest_roundtrip () =
  let _, _, base = small_manifest () in
  let m = base.Compile.base_manifest in
  let text = Manifest.to_json_string m in
  match Manifest.of_json_string text with
  | Error e -> Alcotest.failf "manifest did not reload: %s" e
  | Ok m' ->
      Alcotest.(check string) "roundtrip is byte-stable" text
        (Manifest.to_json_string m')

let test_manifest_doctored_fails () =
  let _, _, base = small_manifest () in
  let m = base.Compile.base_manifest in
  let text = Manifest.to_json_string m in
  (* Flip one character of the embedded design fingerprint: the document
     still parses as JSON, but the checksum must catch the tamper. *)
  let find_sub hay needle =
    let n = String.length needle and h = String.length hay in
    let rec scan i =
      if i + n > h then None
      else if String.sub hay i n = needle then Some i
      else scan (i + 1)
    in
    scan 0
  in
  let i =
    match find_sub text m.Manifest.design_fp with
    | Some i -> i
    | None -> Alcotest.fail "design_fp not embedded in manifest JSON"
  in
  let doctored = Bytes.of_string text in
  Bytes.set doctored i (if Bytes.get doctored i = '0' then '1' else '0');
  (match Manifest.of_json_string (Bytes.to_string doctored) with
  | Ok _ -> Alcotest.fail "doctored manifest was accepted"
  | Error _ -> ());
  (* Truncation must also fail closed. *)
  match Manifest.of_json_string (String.sub text 0 (String.length text / 2)) with
  | Ok _ -> Alcotest.fail "truncated manifest was accepted"
  | Error _ -> ()

let test_foreign_options_fall_cold () =
  let nl, options, base = small_manifest () in
  let foreign =
    { base.Compile.base_manifest with Manifest.options_fp = "deadbeefdeadbeef" }
  in
  match find_edit Edit.Flip_domain nl with
  | None -> Alcotest.fail "no applicable flip edit"
  | Some (edited, _) ->
      let cold = Compile.compile_base ~options edited in
      let delta = Compile.compile_delta ~options ~manifest:foreign edited in
      Alcotest.(check bool) "fell back cold" true
        (delta.Compile.delta_diff = None);
      Alcotest.(check int) "nothing reused" 0 delta.Compile.delta_reused;
      Alcotest.(check string) "schedule still identical to cold"
        (schedule_json cold.Compile.base_compiled.Compile.schedule)
        (schedule_json delta.Compile.delta_compiled.Compile.schedule)

(* ---- Block-granular cache entries. ---- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "msched-delta-test-%d-%d" (Unix.getpid ()) !n)
    in
    Cache.ensure_dir dir;
    dir

let test_cache_block_granular () =
  let _, _, base = small_manifest () in
  let m = base.Compile.base_manifest in
  let dir = fresh_dir () in
  let key = "cafe0001cafe0001" in
  (match Cache.store_manifest ~dir ~key m with
  | Ok () -> ()
  | Error d -> Alcotest.failf "store failed: %a" Diag.pp d);
  (* Full reload reassembles the manifest byte-identically. *)
  (match Cache.load_manifest ~dir ~key with
  | Cache.M_hit (m', 0) ->
      Alcotest.(check string) "reassembled byte-identically"
        (Manifest.to_json_string m)
        (Manifest.to_json_string m')
  | Cache.M_hit (_, n) -> Alcotest.failf "%d slices missing on full load" n
  | Cache.M_miss -> Alcotest.fail "stored manifest missed"
  | Cache.M_corrupt _ -> Alcotest.fail "stored manifest corrupt");
  (* An evicted slice degrades that block to cold, nothing more. *)
  Sys.remove (Cache.block_file ~dir ~key ~block:0);
  (match Cache.load_manifest ~dir ~key with
  | Cache.M_hit (m', missing) ->
      Alcotest.(check int) "one slice missing" 1 missing;
      Alcotest.(check bool) "block 0 entries gone, shape intact" true
        (m'.Manifest.num_blocks = m.Manifest.num_blocks
        && List.for_all (fun e -> e.Manifest.m_src <> 0) m'.Manifest.entries)
  | _ -> Alcotest.fail "manifest with an evicted slice must still load");
  (* A corrupt header is a full, diagnosed miss. *)
  let oc = open_out (Cache.manifest_file ~dir ~key) in
  output_string oc "{\"schema\": \"garbage\"}";
  close_out oc;
  (match Cache.load_manifest ~dir ~key with
  | Cache.M_corrupt d ->
      Alcotest.(check string) "E_CACHE" "E_CACHE" (Diag.code_name d.Diag.code)
  | _ -> Alcotest.fail "corrupt header must be reported corrupt");
  match Cache.load_manifest ~dir ~key:"0123456789abcdef" with
  | Cache.M_miss -> ()
  | _ -> Alcotest.fail "unknown key must miss"

(* Schema 2 transcripts hold only the goal-directed search's probes, which
   do not prove the result of an older binary's unbounded search; a
   schema-1 manifest (whole document, or cache header) must never be
   replayed: it is rejected and the compile falls cold with E_CACHE. *)
let test_old_schema_falls_cold () =
  let _, _, base = small_manifest () in
  let m = base.Compile.base_manifest in
  let downgrade text =
    let cur = Printf.sprintf "\"schema\":\"%s\"" Manifest.schema in
    let n = String.length cur in
    let rec find k =
      if k + n > String.length text then Alcotest.fail "no schema key"
      else if String.sub text k n = cur then k
      else find (k + 1)
    in
    let i = find 0 in
    String.sub text 0 i ^ "\"schema\":\"msched-delta-manifest-1\""
    ^ String.sub text (i + n) (String.length text - i - n)
  in
  Alcotest.(check string) "current schema" "msched-delta-manifest-2"
    Manifest.schema;
  (match Manifest.of_json_string (downgrade (Manifest.to_json_string m)) with
  | Ok _ -> Alcotest.fail "schema-1 manifest must not load"
  | Error _ -> ());
  let dir = fresh_dir () in
  let key = "0ld5c4e3a0ld5c4e" in
  (match Cache.store_manifest ~dir ~key m with
  | Ok () -> ()
  | Error d -> Alcotest.failf "store failed: %a" Diag.pp d);
  let path = Cache.manifest_file ~dir ~key in
  let header = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (downgrade header));
  match Cache.load_manifest ~dir ~key with
  | Cache.M_corrupt d ->
      Alcotest.(check string) "falls cold with E_CACHE" "E_CACHE"
        (Diag.code_name d.Diag.code)
  | Cache.M_hit _ -> Alcotest.fail "schema-1 cache header must not replay"
  | Cache.M_miss -> Alcotest.fail "schema-1 cache header must be diagnosed"

let test_cache_gc_never_strands () =
  let _, _, base = small_manifest () in
  let m = base.Compile.base_manifest in
  let dir = fresh_dir () in
  let keys = [ "1111aaaa1111aaaa"; "2222bbbb2222bbbb"; "3333cccc3333cccc" ] in
  List.iter
    (fun key ->
      match Cache.store_manifest ~dir ~key m with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "store failed")
    keys;
  let st = Cache.stats ~dir in
  Alcotest.(check int) "manifest headers counted" 3 st.Cache.st_manifests;
  Alcotest.(check int) "block slices counted"
    (3 * m.Manifest.num_blocks)
    st.Cache.st_blocks;
  (* Evict down to roughly a third: some entries must go, and whatever
     survives must still load — degraded at worst, never corrupt. *)
  let r = Cache.gc ~dir ~max_bytes:(st.Cache.st_bytes / 3) in
  Alcotest.(check bool) "something was evicted" true (r.Cache.gc_evicted > 0);
  Alcotest.(check bool) "cap respected" true
    (r.Cache.gc_bytes_after <= st.Cache.st_bytes / 3);
  List.iter
    (fun key ->
      match Cache.load_manifest ~dir ~key with
      | Cache.M_miss -> ()
      | Cache.M_hit (m', missing) ->
          Alcotest.(check bool) "surviving manifest is coherent" true
            (m'.Manifest.num_blocks = m.Manifest.num_blocks && missing >= 0)
      | Cache.M_corrupt _ ->
          Alcotest.fail "gc stranded a manifest in a corrupt state")
    keys;
  (* Deleting a header orphans its slices; the next gc sweeps them. *)
  let dir2 = fresh_dir () in
  (match Cache.store_manifest ~dir:dir2 ~key:(List.hd keys) m with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "store failed");
  Sys.remove (Cache.manifest_file ~dir:dir2 ~key:(List.hd keys));
  let r2 = Cache.gc ~dir:dir2 ~max_bytes:max_int in
  Alcotest.(check int) "orphaned slices swept" m.Manifest.num_blocks
    r2.Cache.gc_orphans;
  Alcotest.(check int) "directory left empty" 0
    (Cache.stats ~dir:dir2).Cache.st_entries

(* ---- Canonical serial form: the cache-key preimage is a fixpoint. ---- *)

let prop_canonical_fixpoint =
  QCheck.Test.make ~name:"canonical serial text is a byte fixpoint" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let nl =
        (Design_gen.random_multidomain ~seed ~domains:3 ~modules:6
           ~mts_fraction:0.3 ())
          .Design_gen.netlist
      in
      let text = Serial.to_string nl in
      (* Print -> parse -> print is byte-stable... *)
      (match Serial.of_string text with
      | Error _ -> QCheck.Test.fail_report "emitted text did not parse"
      | Ok nl' ->
          if Serial.to_string nl' <> text then
            QCheck.Test.fail_report "print/parse/print not byte-stable");
      (* ...and canonicalization absorbs comments, blank lines and
         renumbering, then reaches its fixpoint in one step. *)
      let noisy = "# a comment\n\n" ^ text ^ "\n# trailing\n\n" in
      match Serial.canonical noisy with
      | Error _ -> QCheck.Test.fail_report "noisy text did not canonicalize"
      | Ok c -> (
          match Serial.canonical c with
          | Error _ -> QCheck.Test.fail_report "canonical text did not reparse"
          | Ok c' -> c = c'))

let prop_cache_key_canonical =
  QCheck.Test.make
    ~name:"cache keys ignore whitespace, comments and net numbering" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let nl =
        (Design_gen.random_multidomain ~seed ~domains:2 ~modules:5
           ~mts_fraction:0.25 ())
          .Design_gen.netlist
      in
      let text = Serial.to_string nl in
      let noisy = "# edited in some IDE\n\n" ^ text ^ "\n\n# eof\n" in
      let options = Compile.default_options in
      Cache.key ~text ~options = Cache.key ~text:noisy ~options)

let suite =
  [
    Alcotest.test_case "differential: delta == cold across families, modes, \
                        edits"
      `Slow test_differential;
    Alcotest.test_case "identity delta replays everything" `Quick
      test_identity_replay;
    Alcotest.test_case "single-block edit reuses and searches less" `Quick
      test_reuse_beats_cold;
    Alcotest.test_case "verifier accepts delta schedules" `Quick
      test_delta_schedule_verifies;
    Alcotest.test_case "manifest JSON roundtrip" `Quick test_manifest_roundtrip;
    Alcotest.test_case "doctored manifest fails closed" `Quick
      test_manifest_doctored_fails;
    Alcotest.test_case "foreign options fingerprint falls cold" `Quick
      test_foreign_options_fall_cold;
    Alcotest.test_case "cache: block-granular store, load, degrade" `Quick
      test_cache_block_granular;
    Alcotest.test_case "cache: gc never strands a manifest" `Quick
      test_cache_gc_never_strands;
    Alcotest.test_case "schema-1 manifest falls cold with E_CACHE" `Quick
      test_old_schema_falls_cold;
    QCheck_alcotest.to_alcotest prop_canonical_fixpoint;
    QCheck_alcotest.to_alcotest prop_cache_key_canonical;
  ]

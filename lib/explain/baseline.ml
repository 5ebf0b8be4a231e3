module Diag = Msched_diag.Diag
module J = Diag.Json

type kind = Time | Count | Effort | Length | Speed | Bool

let kind_name = function
  | Time -> "time"
  | Count -> "count"
  | Effort -> "effort"
  | Length -> "length"
  | Speed -> "speed"
  | Bool -> "bool"

type metric = { m_path : string; m_kind : kind; m_value : float }

let parse_error fmt = Format.kasprintf (fun m -> Diag.error Diag.E_PARSE "%s" m) fmt

(* Flatten one msched-obs-1 document under [prefix].  Span durations are
   aggregated to a per-name maximum (several attempts may reuse a span
   name); counters become Count metrics; the schedule gauges carry their
   deterministic classes. *)
let extract_obs ~prefix v acc =
  let acc =
    match J.mem "spans" v with
    | Some (J.Arr spans) ->
        let max_by_name = Hashtbl.create 32 in
        List.iter
          (fun s ->
            match (Option.bind (J.mem "name" s) J.str,
                   Option.bind (J.mem "dur_us" s) J.num)
            with
            | Some name, Some dur ->
                let cur =
                  Option.value ~default:neg_infinity
                    (Hashtbl.find_opt max_by_name name)
                in
                Hashtbl.replace max_by_name name (Float.max cur dur)
            | _ -> ())
          spans;
        Hashtbl.fold
          (fun name dur acc ->
            {
              m_path = Printf.sprintf "%s.span.%s.max_dur_us" prefix name;
              m_kind = Time;
              m_value = dur;
            }
            :: acc)
          max_by_name acc
    | _ -> acc
  in
  let flat_obj member kind_of acc =
    match J.mem member v with
    | Some (J.Obj kvs) ->
        List.fold_left
          (fun acc (k, value) ->
            match J.num value with
            | Some f ->
                {
                  m_path =
                    Printf.sprintf "%s.%s.%s" prefix
                      (match member with "counters" -> "counter" | _ -> "gauge")
                      k;
                  m_kind = kind_of k;
                  m_value = f;
                }
                :: acc
            | None -> acc)
          acc kvs
    | _ -> acc
  in
  let gauge_kind = function
    | "schedule.length" -> Length
    | "schedule.est_speed_hz" -> Speed
    | _ -> Count
  in
  flat_obj "counters" (fun _ -> Count) acc |> flat_obj "gauges" gauge_kind

let extract text =
  match J.parse text with
  | Error at -> Error (parse_error "baseline is not valid JSON (%s)" at)
  | Ok doc -> (
      match Option.bind (J.mem "schema" doc) J.str with
      | Some "msched-bench-pipeline-7" ->
          let acc = [] in
          let acc =
            match J.mem "designs" doc with
            | Some (J.Obj designs) ->
                List.fold_left
                  (fun acc (name, obs) ->
                    extract_obs ~prefix:("designs." ^ name) obs acc)
                  acc designs
            | _ -> acc
          in
          let acc =
            match Option.bind (J.mem "driver" doc) (J.mem "obs") with
            | Some obs -> (
                (* Driver spans are wall-clock over many attempts and its
                   gauges repeat the per-design ones; only the resilience
                   counters are gate-worthy. *)
                match J.mem "counters" obs with
                | Some (J.Obj kvs) ->
                    List.fold_left
                      (fun acc (k, value) ->
                        match J.num value with
                        | Some f ->
                            {
                              m_path = "driver.counter." ^ k;
                              m_kind = Count;
                              m_value = f;
                            }
                            :: acc
                        | None -> acc)
                      acc kvs
                | _ -> acc)
            | None -> acc
          in
          let acc =
            match J.mem "workloads" doc with
            | Some (J.Obj families) ->
                List.fold_left
                  (fun acc (family, entries) ->
                    match J.arr entries with
                    | None -> acc
                    | Some entries ->
                        List.fold_left
                          (fun acc e ->
                            match Option.bind (J.mem "spec" e) J.str with
                            | None -> acc
                            | Some spec ->
                                let p field =
                                  Printf.sprintf "workloads.%s.%s.%s" family
                                    spec field
                                in
                                let num field kind acc =
                                  match
                                    Option.bind (J.mem field e) J.num
                                  with
                                  | Some f ->
                                      {
                                        m_path = p field;
                                        m_kind = kind;
                                        m_value = f;
                                      }
                                      :: acc
                                  | None -> acc
                                in
                                let acc = num "schedule_length" Length acc in
                                let acc = num "est_speed_hz" Speed acc in
                                let acc =
                                  match J.mem "verifier_clean" e with
                                  | Some (J.Bool b) ->
                                      {
                                        m_path = p "verifier_clean";
                                        m_kind = Bool;
                                        m_value = (if b then 1.0 else 0.0);
                                      }
                                      :: acc
                                  | _ -> acc
                                in
                                acc)
                          acc entries)
                  acc families
            | _ -> acc
          in
          let acc =
            (* Parallel-compile section: only its equality classes are
               gated (identical schedules/placements across widths, stable
               length/speed) — the recorded wall times are informational,
               never compared (1-core runners cannot show parallel gain). *)
            match J.mem "par" doc with
            | Some par ->
                let bool_metric field acc =
                  match J.mem field par with
                  | Some (J.Bool b) ->
                      {
                        m_path = "par." ^ field;
                        m_kind = Bool;
                        m_value = (if b then 1.0 else 0.0);
                      }
                      :: acc
                  | _ -> acc
                in
                let num_metric field kind acc =
                  match Option.bind (J.mem field par) J.num with
                  | Some f ->
                      { m_path = "par." ^ field; m_kind = kind; m_value = f }
                      :: acc
                  | None -> acc
                in
                bool_metric "schedule_identical_1v2" acc
                |> bool_metric "schedule_identical_1v4"
                |> bool_metric "placement_identical"
                |> num_metric "schedule_length" Length
                |> num_metric "est_speed_hz" Speed
            | None -> acc
          in
          let acc =
            (* Delta-compilation section: gate the equality classes (warm
               schedule byte-identical to cold, strictly fewer pathfinder
               expansions) and the reuse economics; the wall times are
               informational, never compared. *)
            match J.mem "delta" doc with
            | Some delta ->
                let bool_metric field acc =
                  match J.mem field delta with
                  | Some (J.Bool b) ->
                      {
                        m_path = "delta." ^ field;
                        m_kind = Bool;
                        m_value = (if b then 1.0 else 0.0);
                      }
                      :: acc
                  | _ -> acc
                in
                let num_metric field kind acc =
                  match Option.bind (J.mem field delta) J.num with
                  | Some f ->
                      { m_path = "delta." ^ field; m_kind = kind; m_value = f }
                      :: acc
                  | None -> acc
                in
                bool_metric "schedule_identical" acc
                |> bool_metric "fewer_expansions"
                |> num_metric "reuse_fraction" Speed
                |> num_metric "warm_expansions" Count
                |> num_metric "identity_expansions" Count
                |> num_metric "schedule_length" Length
                |> num_metric "est_speed_hz" Speed
            | None -> acc
          in
          let acc =
            (* Routing effort against design size: per-search expansions
               and their growth are gated tightly; TIERS wall times are
               informational. *)
            match J.mem "scale" doc with
            | Some scale ->
                let acc =
                  match Option.bind (J.mem "points" scale) J.arr with
                  | None -> acc
                  | Some points ->
                      List.fold_left
                        (fun acc e ->
                          match Option.bind (J.mem "spec" e) J.str with
                          | None -> acc
                          | Some spec ->
                              let num field kind acc =
                                match Option.bind (J.mem field e) J.num with
                                | Some f ->
                                    {
                                      m_path =
                                        Printf.sprintf "scale.%s.%s" spec field;
                                      m_kind = kind;
                                      m_value = f;
                                    }
                                    :: acc
                                | None -> acc
                              in
                              num "expansions_per_search" Effort acc
                              |> num "schedule_length" Length
                              |> num "est_speed_hz" Speed)
                        acc points
                in
                (match Option.bind (J.mem "expansions_growth" scale) J.num with
                | Some f ->
                    {
                      m_path = "scale.expansions_growth";
                      m_kind = Effort;
                      m_value = f;
                    }
                    :: acc
                | None -> acc)
            | None -> acc
          in
          Ok
            (List.sort
               (fun a b -> compare a.m_path b.m_path)
               acc)
      | Some other ->
          Error
            (parse_error
               "baseline schema is %S, expected \"msched-bench-pipeline-7\""
               other)
      | None -> Error (parse_error "baseline document has no schema field"))

type verdict = {
  v_path : string;
  v_kind : kind;
  v_base : float;
  v_fresh : float option;
  v_regressed : bool;
  v_note : string;
}

type diff = { d_compared : int; d_new : int; d_verdicts : verdict list }

(* Tolerances, per class.  Shared-runner wall clocks are noisy: a time
   metric must blow through BOTH a 5x ratio and a 50 ms absolute delta.
   Work counters allow 1.5x-and-64 drift.  Schedule lengths, estimated
   speeds and verifier cleanliness are deterministic for a committed seed:
   any worsening regresses. *)
let time_ratio = 5.0
let time_abs_us = 50_000.0
let count_ratio = 1.5
let count_abs = 64.0
let effort_ratio = 1.1

let judge kind base fresh =
  match kind with
  | Time ->
      let worse =
        fresh > base *. time_ratio && fresh -. base > time_abs_us
      in
      ( worse,
        if worse then
          Printf.sprintf "%.1fx and +%.0fus over baseline (limit %gx and +%gus)"
            (fresh /. Float.max 1.0 base)
            (fresh -. base) time_ratio time_abs_us
        else "within time tolerance" )
  | Count ->
      let worse = fresh > base *. count_ratio && fresh -. base > count_abs in
      ( worse,
        if worse then
          Printf.sprintf "%.2fx and +%.0f over baseline (limit %gx and +%g)"
            (fresh /. Float.max 1.0 base)
            (fresh -. base) count_ratio count_abs
        else "within count tolerance" )
  | Effort ->
      let worse = fresh > base *. effort_ratio in
      ( worse,
        if worse then
          Printf.sprintf "search effort %.4g -> %.4g (limit %gx)" base fresh
            effort_ratio
        else "within effort tolerance" )
  | Length ->
      let worse = fresh > base in
      ( worse,
        if worse then
          Printf.sprintf "frame grew %.0f -> %.0f vclocks (any increase fails)"
            base fresh
        else "no increase" )
  | Speed ->
      let worse = fresh < base in
      ( worse,
        if worse then
          Printf.sprintf
            "estimated speed fell %.4g -> %.4g Hz (any decrease fails)" base
            fresh
        else "no decrease" )
  | Bool ->
      let worse = base >= 1.0 && fresh < 1.0 in
      ( worse,
        if worse then "was clean in baseline, dirty in fresh run"
        else "still clean" )

let compare_runs ~baseline ~fresh =
  match extract baseline with
  | Error d -> Error d
  | Ok base_metrics -> (
      match extract fresh with
      | Error d -> Error d
      | Ok fresh_metrics ->
          let fresh_tbl = Hashtbl.create 256 in
          List.iter
            (fun m -> Hashtbl.replace fresh_tbl m.m_path m.m_value)
            fresh_metrics;
          let base_paths = Hashtbl.create 256 in
          List.iter
            (fun m -> Hashtbl.replace base_paths m.m_path ())
            base_metrics;
          let compared = ref 0 in
          let verdicts =
            List.filter_map
              (fun m ->
                match Hashtbl.find_opt fresh_tbl m.m_path with
                | Some f ->
                    incr compared;
                    let regressed, note = judge m.m_kind m.m_value f in
                    if regressed then
                      Some
                        {
                          v_path = m.m_path;
                          v_kind = m.m_kind;
                          v_base = m.m_value;
                          v_fresh = Some f;
                          v_regressed = true;
                          v_note = note;
                        }
                    else None
                | None ->
                    Some
                      {
                        v_path = m.m_path;
                        v_kind = m.m_kind;
                        v_base = m.m_value;
                        v_fresh = None;
                        v_regressed = true;
                        v_note = "metric missing from fresh run";
                      })
              base_metrics
          in
          let d_new =
            List.length
              (List.filter
                 (fun m -> not (Hashtbl.mem base_paths m.m_path))
                 fresh_metrics)
          in
          Ok { d_compared = !compared; d_new; d_verdicts = verdicts })

let ok d = d.d_verdicts = []

let to_json d =
  let b = Buffer.create 4096 in
  let first = ref true in
  Buffer.add_char b '{';
  J.field b ~first "schema" (J.string "msched-bench-diff-1");
  J.field b ~first "ok" (string_of_bool (ok d));
  J.field b ~first "compared" (string_of_int d.d_compared);
  J.field b ~first "new_metrics" (string_of_int d.d_new);
  J.field b ~first "regressions" (string_of_int (List.length d.d_verdicts));
  J.field b ~first "tolerances"
    (Printf.sprintf
       "{\"time\":\"fail if >%gx and >+%gus\",\"count\":\"fail if >%gx and \
        >+%g\",\"length\":\"fail on any increase\",\"speed\":\"fail on any \
        decrease\",\"bool\":\"fail on true->false\"}"
       time_ratio time_abs_us count_ratio count_abs);
  let vb = Buffer.create 1024 in
  Buffer.add_char vb '[';
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char vb ',';
      let vf = ref true in
      Buffer.add_char vb '{';
      J.field vb ~first:vf "path" (J.string v.v_path);
      J.field vb ~first:vf "kind" (J.string (kind_name v.v_kind));
      J.field vb ~first:vf "base" (Printf.sprintf "%.6g" v.v_base);
      (match v.v_fresh with
      | Some f -> J.field vb ~first:vf "fresh" (Printf.sprintf "%.6g" f)
      | None -> J.field vb ~first:vf "fresh" "null");
      J.field vb ~first:vf "note" (J.string v.v_note);
      Buffer.add_char vb '}')
    d.d_verdicts;
  Buffer.add_char vb ']';
  J.field b ~first "details" (Buffer.contents vb);
  Buffer.add_char b '}';
  Buffer.contents b

let pp ppf d =
  Format.fprintf ppf "@[<v>bench gate: %d metrics compared, %d new, %d regressions@,"
    d.d_compared d.d_new
    (List.length d.d_verdicts);
  List.iter
    (fun v ->
      Format.fprintf ppf "  REGRESSED [%s] %s: %.6g -> %s — %s@,"
        (kind_name v.v_kind) v.v_path v.v_base
        (match v.v_fresh with
        | Some f -> Printf.sprintf "%.6g" f
        | None -> "(missing)")
        v.v_note)
    d.d_verdicts;
  Format.fprintf ppf "%s@]"
    (if ok d then "bench gate: OK" else "bench gate: FAILED")

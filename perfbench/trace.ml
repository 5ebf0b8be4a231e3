(* In-memory span recorder for the traced run.

   Spans are opened by the benchmark's own code around each public library
   call, kept in memory, and written out once the run ends.  Every span
   carries the operation it belongs to, so a layer's self time can be
   summed per operation kind.  Recording is off in untraced runs: [span]
   then reduces to calling [f]. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span. *)
  op : int;  (** [-1] outside any operation. *)
  op_kind : string;
  t0 : float;
  t1 : float;
  minor_words : float;  (** [Gc.minor_words] delta over the span. *)
}

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_op = ref (-1, "")
let next_op = ref 0

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let span name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let op, op_kind = !current_op in
    stack := id :: !stack;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        let minor_words = Gc.minor_words () -. w0 in
        stack := List.tl !stack;
        spans :=
          { id; name; parent; op; op_kind; t0; t1; minor_words } :: !spans)
      f
  end

(* One operation: a root span named [op.<kind>] whose descendants share
   its operation id. *)
let op kind f =
  if not !enabled then f ()
  else begin
    let saved = !current_op in
    current_op := (!next_op, kind);
    incr next_op;
    Fun.protect ~finally:(fun () -> current_op := saved) @@ fun () ->
    span ("op." ^ kind) f
  end

(* A span measured elsewhere (a client thread's request), recorded as its
   own operation once the threads have joined. *)
let record_op kind ~t0 ~t1 =
  if !enabled then begin
    let op = !next_op in
    incr next_op;
    spans :=
      {
        id = fresh_id ();
        name = "op." ^ kind;
        parent = -1;
        op;
        op_kind = kind;
        t0;
        t1;
        minor_words = 0.0;
      }
      :: !spans
  end

let all () = List.rev !spans

(* Self time: the span's duration minus the part of it its children cover
   (children run sequentially inside their parent). *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0)))
    spans;
  List.map
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      (s, s.t1 -. s.t0 -. covered))
    spans

let is_op s = String.length s.name > 3 && String.sub s.name 0 3 = "op."

type summary = {
  ops : int;  (** Operations of the summarized kind. *)
  op_time : float;  (** Summed root-span duration of those operations. *)
  by_name : (string, float * float) Hashtbl.t;
      (** Span name -> (summed self time, summed minor words). *)
}

let summarize ~kind =
  let by_name = Hashtbl.create 32 in
  let ops = ref 0 and op_time = ref 0.0 in
  List.iter
    (fun (s, self) ->
      if s.op_kind = kind then
        if is_op s then begin
          incr ops;
          op_time := !op_time +. (s.t1 -. s.t0)
        end
        else
          let t, w =
            Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt by_name s.name)
          in
          Hashtbl.replace by_name s.name (t +. self, w +. s.minor_words))
    (self_times (all ()));
  { ops = !ops; op_time = !op_time; by_name }

(* Mean self time per operation of the spans called [name]. *)
let per_op sm name =
  match Hashtbl.find_opt sm.by_name name with
  | Some (t, _) when sm.ops > 0 -> t /. float_of_int sm.ops
  | _ -> 0.0

let words_per_op sm name =
  match Hashtbl.find_opt sm.by_name name with
  | Some (_, w) when sm.ops > 0 -> w /. float_of_int sm.ops
  | _ -> 0.0

(* Share of the operations' traced wall time that layer spans account for
   by self time. *)
let layer_share sm =
  if sm.op_time <= 0.0 then 0.0
  else Hashtbl.fold (fun _ (t, _) acc -> acc +. t) sm.by_name 0.0 /. sm.op_time

let write_json path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"schema\":\"perfbench-trace-1\",\"spans\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"op_kind\":%S,\"start\":%.6f,\"end\":%.6f,\"minor_words\":%.0f}"
        s.id s.name s.parent s.op s.op_kind s.t0 s.t1 s.minor_words)
    (all ());
  output_string oc "\n]}\n"

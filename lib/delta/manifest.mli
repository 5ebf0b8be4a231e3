(** The delta-compilation manifest (schema ["msched-delta-manifest-2"]):
    everything a later compile of an {e edited} design needs in order to
    prove which work it may skip.

    A manifest is only ever produced by an {e exact-context} base compile
    ({!Msched_route.Reroute.create}[ ~exact:true]), so every ledger entry
    carries the probe transcript that makes its replay provable.  Ledger
    entries and boundary signatures are keyed by {e names} (net and domain
    names, block indices), because ids shift under edits; names that fail
    to resolve in the edited design cost reuse, never correctness. *)

type entry = {
  m_net : string;  (** Net name in the post-MTS-rewrite netlist. *)
  m_src : int;  (** Source block index. *)
  m_dst : int;  (** Destination block index. *)
  m_dom : string;  (** Constituent-domain name, [""] for none. *)
  m_anchor : int;
  m_len : int;
  m_hops : (int * int) list;
  m_pf : (int * int) list;
  m_pb : (int * int) list;
}

type t = {
  options_fp : string;
      (** {!Msched.Compile.options_fingerprint} of the producing compile;
          a mismatch forces a cold compile. *)
  design_fp : string;  (** {!Fingerprint.design} of the original netlist. *)
  num_blocks : int;
  assignment : int array;  (** Block index -> FPGA index. *)
  block_fps : string array;  (** {!Fingerprint.block} per block. *)
  boundary : (string * string) list;
      (** Crossing-net name -> {!Fingerprint.boundary_signature}, sorted;
          nets with ambiguous names omitted. *)
  entries : entry list;  (** Canonically sorted. *)
}

val schema : string
val block_schema : string

val build :
  options_fp:string ->
  design_fp:string ->
  Msched_place.Placement.t ->
  analysis:Msched_mts.Domain_analysis.t ->
  ctx:Msched_route.Reroute.t ->
  t
(** Harvest the manifest of a finished compile: the placement/partition
    shape plus every replayable (probe-carrying, reverse-direction,
    uniquely-named) entry of the exact context's ledger. *)

(** {2 Whole-manifest persistence (CLI files)} *)

val to_json_string : t -> string
(** Canonical, checksummed single document. *)

val of_json_string : string -> (t, string) result
(** Never raises; checksum and schema failures land in [Error]. *)

(** {2 Block-granular persistence (server cache)}

    The header carries the design shape and fingerprints; one slice per
    source block carries that block's ledger entries.  Slices evict
    independently: a missing slice costs its entries' reuse, a corrupt or
    missing header costs the whole manifest. *)

val header_json : t -> string
val slice_json : t -> block:int -> string

val header_of_json_string : string -> (t, string) result
(** The reassembled manifest with an empty ledger. *)

val slice_of_json_string : string -> (int * entry list, string) result

val with_slices : t -> (int * entry list) list -> t
(** Attach loaded slices to a loaded header (sorted by block). *)

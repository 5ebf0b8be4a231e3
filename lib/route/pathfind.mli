(** Reverse-time shortest-path search over the time-expanded wire graph
    (the "modified Dijkstra" of the paper's Section 6; with unit edge costs
    it degenerates to a layered BFS).

    Coordinates are {e reverse} virtual-clock slots: [r = 0] is the frame
    end, larger [r] is earlier in forward time.  A transport that must
    arrive at the destination FPGA at reverse time [r_arr] is searched
    backwards: a hop from FPGA [g] to [f] over channel [(g, f)] departs [g]
    at [r + 1], arrives [f] at [r], and occupies the channel at slot
    [r + 1]; waiting inside an FPGA (pipelining in flops) is free. *)

open Msched_netlist

type path = {
  p_len : int;  (** Transport latency in virtual clocks (departure − arrival). *)
  p_hops : (int * int) list;
      (** (channel index, reverse slot) per hop, source-side first. *)
}

type log = {
  mutable l_free : (int * int) list;
      (** (channel, slot) probes that found the slot free, newest first. *)
  mutable l_blocked : (int * int) list;
      (** Probes that found the slot full, newest first. *)
  mutable l_expanded : int;  (** States expanded (the reached target counts). *)
  mutable l_rounds : int;  (** Times the goal bound was raised. *)
}
(** Effort and probe transcript of one search.  The exploration is a
    deterministic function of its probe results, so a later search in
    which every recorded probe resolves identically is provably the
    byte-identical search — the validity condition both for exact ledger
    replay in delta compilation ({!Reroute.is_exact}) and for committing a
    speculative search in the parallel TIERS pass. *)

val log : unit -> log

val search :
  ?obs:Msched_obs.Sink.t ->
  ?ctx:Reroute.t ->
  ?log:log ->
  Msched_arch.System.t ->
  Resource.t ->
  src:Ids.Fpga.t ->
  dst:Ids.Fpga.t ->
  r_arr:int ->
  max_extra:int ->
  path option
(** Minimal-latency path whose arrival is exactly [r_arr]; [None] if no path
    exists within [r_arr + distance + max_extra] reverse slots (pathological
    congestion or a disconnected wire pool).  Does not reserve slots.

    The search is goal-directed: a state whose slot plus its hop distance
    to [src] exceeds the current bound is neither probed nor expanded, and
    the bound is deepened only when a round fails.  The returned path —
    latency and hops — is exactly that of the unbounded layered BFS over
    the same reservation table (docs/ALGORITHM.md, "Goal-directed
    search").

    With a reroute context [ctx], channels are explored least-contested
    first (order fixed from the history as it stands when the search
    starts), and every blocked probe bumps that channel's history when the
    search ends (negotiated congestion); expansion counts are charged to
    the context and to the [reroute.expansions] counter.  With [log], the
    probes and effort are also transcribed into the caller's log (used to
    build exact-replay ledger entries). *)

val reserve_path : Resource.t -> path -> unit

(** {2 Frozen speculative search}

    The parallel TIERS reverse pass routes several links concurrently
    against a {e frozen} snapshot of the reservation table and congestion
    history: workers must not mutate shared state, so the frozen search
    defers every side effect (history bumps, expansion accounting) into
    its {!log}.  The sequential committer then either {e replays} the log
    with {!account} — valid exactly when every free-probed slot is still
    free and the history the search ordered channels by is unchanged,
    since reservations are monotone within a pass — or discards it and
    re-routes the link on the live path.  When the replay is valid the
    exploration the worker performed is provably the one the sequential
    pass would have performed, which is what makes jobs=N schedules
    byte-identical to jobs=1. *)

val overlay_free :
  Resource.t -> (int * int, int) Hashtbl.t -> channel:int -> rslot:int -> bool
(** Probe against the frozen table plus a private overlay of (channel,
    rslot) -> count reservations (a worker's — or the committer's — own
    not-yet-applied hops). *)

val search_frozen :
  ?ctx:Reroute.t ->
  Msched_arch.System.t ->
  Resource.t ->
  overlay:(int * int, int) Hashtbl.t ->
  log:log ->
  src:Ids.Fpga.t ->
  dst:Ids.Fpga.t ->
  r_arr:int ->
  max_extra:int ->
  path option
(** Side-effect-free twin of {!search}: the same search core and channel
    order, probing [res] plus the caller's [overlay] (reservations made by
    earlier transports of the same link); mutates only [log]. *)

val account :
  ?obs:Msched_obs.Sink.t ->
  ?ctx:Reroute.t ->
  log ->
  path option ->
  dist:int ->
  unit
(** The accounting a search defers to its end: the [pathfind.*] counters
    and observations (including the [pathfind.expansions] histogram and
    [pathfind.deepen_rounds]), context expansion charges and the
    congestion-history bumps of the blocked probes.  {!search} applies it
    at once; the parallel committer applies it to validated frozen logs. *)

val search_forward :
  ?obs:Msched_obs.Sink.t ->
  ?ctx:Reroute.t ->
  ?log:log ->
  Msched_arch.System.t ->
  Resource.t ->
  src:Ids.Fpga.t ->
  dst:Ids.Fpga.t ->
  t_dep:int ->
  max_extra:int ->
  path option
(** Forward-time variant used by the list scheduler, on the same search
    core: the value leaves its source at [t_dep] (forward slot) and the
    search minimizes the arrival time at [dst]; [p_hops] carry {e forward}
    slots.  A hop departing an FPGA at slot [t] occupies its channel at
    slot [t + 1] and lands at [t + 1]. *)

val shortest_free_wire_path :
  ?obs:Msched_obs.Sink.t ->
  Msched_arch.System.t ->
  Resource.t ->
  src:Ids.Fpga.t ->
  dst:Ids.Fpga.t ->
  int list option
(** Spatial (time-free) shortest path using only channels that still have at
    least one multiplexable wire; used by the hard-routing baseline to pick
    wires to dedicate. Returns channel indices, source-side first. *)

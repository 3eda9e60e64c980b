(** Deterministic domain-per-shard parallel execution.

    A topology is cut at its boundary links (propagation delay at or
    above {!Link.cut_threshold}); the components that remain connected
    by fast links are grouped onto N shards, each with its own
    {!Engine} running on its own domain.  Shards advance through
    conservative time windows of width w = the minimum propagation
    delay over cross-shard links: a window [T, T+w) is safe to execute
    without coordination because anything another shard transmits
    during it arrives at T+w or later.  In-flight packets cross
    between shards through per-cut-edge SPSC mailboxes
    ({!Mmt_util.Mailbox}), carrying the exact arrival time and
    boundary-lane key a sequential run would have used — so the merged
    execution is byte-identical to running the whole topology on one
    engine (see {!Engine.schedule_boundary} for the key construction).

    Construction is two-pass: {!build} first runs the caller's build
    function against a throwaway single-engine topology to learn the
    graph, partitions it, then runs the same build function again
    against per-shard engines.  When the graph yields fewer than two
    components (or [shards < 2]) it falls back to a plain sequential
    topology — same build function, no runner. *)

open Mmt_util

type t
(** A wired sharded runner: engines, cross-shard mailboxes, window. *)

val build :
  shards:int ->
  ?pooling:bool ->
  ?fusing:bool ->
  (Topology.t -> 'a) ->
  Topology.t * 'a * t option
(** [build ~shards build_fn] constructs the caller's topology for
    parallel execution.  [build_fn] must be deterministic and
    self-contained: it creates nodes and links through the topology it
    is given, attaches components to {!Topology.node_engine} of each
    node, and returns whatever handles the caller needs to read
    results later.  Every shard owns a packet {!Ring}
    ({!Topology.node_ring}); frames that cross a shard mailbox are
    detached from the source ring and later retired into the
    {e receiving} shard's pool, never the sender's.  [pooling] and
    [fusing] are accepted and ignored, for callers written against the
    removed allocator and fused-hop options.

    Returns [(topo, result, runner)]; [runner] is [None] when the run
    fell back to sequential (fewer than two cut components, or
    [shards < 2]), in which case the caller drives
    [Topology.engine topo] directly as always. *)

val run : ?until:Units.Time.t -> t -> unit
(** Execute all shards to quiescence (or to [until]), spawning one
    domain per shard beyond the caller's.  Matches
    {!Engine.run}'s clock-clamp semantics: with [until] every shard's
    clock ends at [until] exactly as a sequential run's would.
    Without [until], use {!last_event_at} rather than {!Engine.now}
    for end-of-run timestamps — window caps advance each engine's
    clock past its last event.  Spawned domains take the runtime's GC
    parameters ([OCAMLRUNPARAM=s=…,o=…]).

    If a shard raises, the remaining shards finish their window, the
    run shuts down at the next barrier, and the exception is re-raised
    here with its original backtrace. *)

val nshards : t -> int

val events : t -> int
(** Total events executed, summed over shards.  Equal to the
    sequential run's {!Engine.processed} count: the same simulation
    events run, merely distributed, and the barrier machinery executes
    outside the heaps. *)

val last_event_at : t -> Units.Time.t
(** Latest {!Engine.last_event_at} over all shards — the sharded
    equivalent of reading {!Engine.now} after a sequential
    run-to-quiescence. *)

val components : Topology.t -> int
(** Number of groups the topology's non-boundary edges form — the
    upper bound on useful shards.  Exposed for tests and for callers
    that want to report why a run fell back to sequential. *)

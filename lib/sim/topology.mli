(** Topology construction: nodes wired by links, plus shared identity
    allocation for packets.

    Topologies in this reproduction are the paper's: linear
    sensor → DTN → switch → DTN chains with optional fan-out to
    downstream researchers (Fig. 1, Fig. 4), and the facility
    generator's multi-site fan-in trees.

    A topology can span several engines.  {!create} is the ordinary
    single-engine form; {!create_sharded} places every node on one of
    N engines (one per shard) and every link on its source node's
    engine.  Links at or above {!Link.cut_threshold} receive a
    cut-edge id in creation order — in {e every} mode, so their
    keyed delivery order is identical whether the topology runs on one
    engine or many — and they are the only links allowed to cross
    shards. *)

open Mmt_util

type t

val create : engine:Engine.t -> ?trace:Trace.t -> unit -> t
(** A single-engine topology with one packet {!Ring}.  When [trace] is
    given, every link created through this topology records its packet
    events into it. *)

val create_sharded :
  engines:Engine.t array -> assign:(string -> int) -> unit -> t
(** A topology spread over one engine per shard.  [assign] maps a node
    name to its shard (consulted once, at {!add_node}).  Each shard
    gets its own packet ring, so no allocation state is shared between
    domains — slots must never cross a shard boundary
    ({!Ring.detach}).  Tracing is unavailable in sharded mode.
    @raise Invalid_argument if [engines] is empty. *)

val engine : t -> Engine.t
(** Shard 0's engine — the only engine of a {!create}d topology. *)

val nshards : t -> int

val node_engine : t -> Node.t -> Engine.t
(** The engine of the shard [node] lives on.  Components attached to
    [node] must schedule their events here. *)

val shard_of_node : t -> Node.t -> int

val node_ring : t -> Node.t -> Ring.t
(** The packet ring of the shard [node] lives on: components attached
    to [node] allocate from and retire into it. *)

val trace : t -> Trace.t option

val ring : t -> Ring.t
(** Shard 0's packet ring — the only ring of a {!create}d topology. *)

val ring_of_shard : t -> int -> Ring.t option
(** The ring of shard [shard]; always [Some].  The option is kept for
    callers written when rings were optional. *)

val fresh_packet_id : t -> int
(** Unique (per topology) packet identity, drawn from shard 0's
    counter.  Sequential callers use this; sharded construction sites
    use {!id_source} so each domain draws from its own counter. *)

val id_source : t -> Node.t -> unit -> int
(** [id_source t node] is an allocator of topology-unique packet ids
    safe to call from [node]'s shard: shard [s] draws ids in the
    residue class [s mod nshards], so no counter is shared between
    domains.  Ids are pure identity — nothing orders on them — so the
    different numbering of a sharded run does not affect reports. *)

val add_node : t -> name:string -> Node.t
(** @raise Invalid_argument on duplicate names, or (sharded) when
    [assign] returns an out-of-range shard. *)

val find_node : t -> string -> Node.t
(** @raise Not_found for unknown names. *)

val connect :
  t ->
  src:Node.t ->
  dst:Node.t ->
  rate:Units.Rate.t ->
  propagation:Units.Time.t ->
  ?loss:Loss.t ->
  ?queue:Queue_model.t ->
  unit ->
  Link.t
(** Unidirectional [src -> dst] link delivering into [dst]'s handler.
    The link lives on [src]'s engine.  Links with [propagation] at or
    above {!Link.cut_threshold} are created as boundary links with the
    next cut-edge id.
    @raise Invalid_argument if [src] and [dst] sit on different shards
    and [propagation] is below the cut threshold — only WAN-class
    links may cross shards. *)

val duplex :
  t ->
  a:Node.t ->
  b:Node.t ->
  rate:Units.Rate.t ->
  propagation:Units.Time.t ->
  ?loss_ab:Loss.t ->
  ?loss_ba:Loss.t ->
  ?queue_ab:Queue_model.t ->
  ?queue_ba:Queue_model.t ->
  unit ->
  Link.t * Link.t
(** Two links: [(a_to_b, b_to_a)]. *)

val links : t -> Link.t list
(** All links in creation order. *)

val nodes : t -> Node.t list
(** All nodes in creation order. *)

val edges : t -> (Node.t * Node.t * Link.t) list
(** All links with their endpoints, in creation order.  The sharded
    runner walks this to find the cut edges whose mailboxes it must
    wire. *)

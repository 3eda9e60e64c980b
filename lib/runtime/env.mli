(** Protocol runtime environment.

    Transport endpoints (both the multi-modal transport and the TCP/UDP
    baselines) are written against this capability record instead of a
    concrete topology: a clock and timers from the simulation engine,
    an IP-addressed send primitive, fresh packet identities, and the
    host's shard-local packet {!Mmt_sim.Ring}.
    The pilot layer constructs one per host from a
    {!Mmt_sim.Topology}. *)

open Mmt_util
open Mmt_frame

type t = {
  engine : Mmt_sim.Engine.t;
  local_ip : Addr.Ip.t;
  send : Addr.Ip.t -> Mmt_sim.Packet.t -> unit;
      (** Route a packet toward a destination IP and transmit it on the
          corresponding link.  Unroutable destinations are counted and
          dropped by the implementation. *)
  fresh_id : unit -> int;  (** Fresh packet identity. *)
  ring : Mmt_sim.Ring.t;
      (** The shard-local packet ring: new packets take slots from it
          and consumed packets retire into it. *)
}

val now : t -> Units.Time.t
val after : t -> Units.Time.t -> (unit -> unit) -> Mmt_sim.Engine.handle

val packet : t -> bytes -> Mmt_sim.Packet.t
(** Wrap a frame into a ring packet born now with a fresh identity;
    the frame is recycled into the ring's pool at retirement. *)

val retire : t -> Mmt_sim.Packet.t -> unit
(** Declare the packet fully consumed: return its slot and frame to
    the ring.  The caller must be the packet's last holder. *)

val loopback :
  ?local_ip:Addr.Ip.t -> Mmt_sim.Engine.t -> t * Mmt_sim.Packet.t Queue.t
(** Test helper: an environment with a fresh ring whose [send] appends
    to the returned queue regardless of destination. *)

(** Simulated packets.

    A packet is a descriptor: [frame] holds the bytes something reads —
    the encapsulation (Ethernet/IPv4), the transport header, and any
    payload a consumer decodes (a DAQ fragment's header and random
    stamp, LArTPC windows, control messages) — and [padding] counts
    the payload filler that follows them on the wire but is never
    materialized.  The wire size used for queueing, serialization and
    byte counts is [Bytes.length frame + padding]; every header
    checksum, bit flip and in-network element works on [frame]. *)

open Mmt_util

type t = {
  mutable id : int;
  mutable frame : bytes;
  mutable padding : int;
  mutable born : Units.Time.t;
  mutable corrupted : bool;
  mutable hops : int;
  mutable gen : int;
      (** Frame generation, bumped by {!Pool.release_packet} when the
          frame is recycled.  A holder that recorded [gen] at hand-off
          can detect that the frame under it was retired. *)
  mutable slot : int;
      (** Ring-slot index when the record is a {!Ring} arena slot,
          [-1] for a floating (heap-allocated) packet.  Only {!Ring}
          writes this field. *)
}

val create :
  ?padding:int -> id:int -> born:Units.Time.t -> bytes -> t
(** @raise Invalid_argument if [padding < 0]. *)

val wire_size : t -> Units.Size.t
val frame : t -> bytes
val set_frame : t -> bytes -> unit
(** Replace the frame (used when a mode change grows or shrinks the
    header stack).  Padding is preserved. *)

val copy : t -> id:int -> t
(** Deep copy with a new identity (in-network duplication).  The copy
    is always floating ([slot = -1]). *)

val clone : t -> id:int -> frame:bytes -> t
(** Like {!copy} but adopting [frame] (e.g. a pool-acquired buffer the
    caller already filled) instead of copying the original's. *)

val pp : Format.formatter -> t -> unit

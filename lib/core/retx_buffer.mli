(** Retransmission buffers.

    The paper replaces TCP's retransmit-from-the-source with explicit
    on-path buffers: "a more 'recent' (lower RTT) retransmission
    buffer" (§ 1), named in the header so a receiver NAKs the nearest
    copy (§ 5.3).  A buffer stores transport frames keyed by sequence
    number, bounded by bytes, evicting oldest-first — matching an FPGA
    ring buffer.

    A frame is kept as its materialized bytes (encapsulation, header
    and any real payload) plus its padding: the descriptor filler a
    resend reproduces as padding again.  Occupancy, eviction and the
    high-water marks count wire bytes, so a descriptor and the
    equivalent fully materialized frame account identically. *)

open Mmt_util

type t

type entry = {
  frame : bytes;  (** the materialized frame *)
  padding : int;  (** wire bytes the frame carries beyond [frame] *)
  born : Units.Time.t;
      (** birth time of the original packet, preserved so a
          retransmission reports end-to-end (not resend-to-delivery)
          latency *)
}

type stats = {
  stored : int;  (** frames ever inserted *)
  evicted : int;
  hits : int;
  misses : int;
  occupancy : Units.Size.t;
  entries : int;
  occupancy_high_water : Units.Size.t;
      (** most bytes the buffer ever held at once — the FPGA ring's
          required depth for this workload *)
  entries_high_water : int;
}

val create : capacity:Units.Size.t -> t

val store :
  t -> seq:int -> born:Units.Time.t -> padding:int -> bytes -> unit
(** Insert (or overwrite) the frame for [seq], whose wire size is its
    length plus [padding]; evicts oldest entries until the new frame
    fits.  Frames larger than the whole capacity are rejected silently
    (counted as immediate eviction). *)

val fetch : t -> seq:int -> entry option
(** Lookup; counts a hit or a miss. *)

val contains : t -> seq:int -> bool
(** Lookup without touching hit/miss accounting. *)

val stats : t -> stats
val capacity : t -> Units.Size.t

(** DAQ fragment format.

    Models DUNE's readout convention (Req 9): "DUNE's four detectors
    each have specific headers but they all share a top-level DAQ
    header" [68].  The shared header identifies the run, the trigger,
    the slice (Req 8) and a 64-bit hardware timestamp; a
    detector-specific subheader follows; the detector payload (e.g. a
    serialized {!Lartpc} window) closes the fragment.

    Fragments are the {e messages} the transport carries (Req 7) —
    discrete and timestamped.

    {b Descriptors.}  A fragment's payload is [payload] (real bytes)
    followed by [padding] filler bytes that are never materialized: the
    header's payload-length field counts both, {!encode} writes only
    the real bytes, and a sender carries the filler as the packet's
    {!Mmt_sim.Packet.padding}.  Synthetic workloads emit their 8-byte
    random stamp as [payload] and the rest as [padding]; detector
    payloads that a consumer reads (LArTPC windows, hits, photon
    samples, alerts) are fully real, with [padding = 0]. *)

open Mmt_util

type detector =
  | Wib_ethernet of {
      crate : int;
      slot : int;
      fiber : int;
      first_channel : int;
      channel_count : int;
    }  (** LArTPC warm-interface-board readout *)
  | Photon_detector of { module_id : int; sipm_count : int; gain : int }
  | Beam_instrument of { device : int; sample_rate_khz : int; adc_bits : int }
  | Telescope_alert of {
      alert_id : int;
      ra_udeg : int;  (** right ascension, micro-degrees *)
      dec_udeg : int;  (** declination, micro-degrees, offset-encoded *)
      severity : int;
    }  (** Vera-Rubin-style alert (§ 2.1) *)

type t = {
  run : int;
  trigger : int;  (** trigger/sequence number within the run *)
  timestamp : Units.Time.t;  (** hardware clock at digitization *)
  experiment : Mmt.Experiment_id.t;  (** includes the slice (Req 8) *)
  detector : detector;
  payload : bytes;  (** the materialized payload prefix *)
  padding : int;  (** filler bytes after [payload], counted but not held *)
}

val header_size : int
(** Shared top-level header: 28 bytes. *)

val subheader_size : int
(** All detector subheaders are padded to 12 bytes. *)

val payload_length : t -> int
(** Logical payload bytes: [Bytes.length payload + padding]. *)

val total_size : t -> int
(** Header, subheader and logical payload: the fragment's wire size. *)

val detector_kind_code : detector -> int

val encode : t -> bytes
(** Header, subheader and the materialized payload; the [padding]
    filler is left for the carrier packet. *)

val decode : ?padding:int -> bytes -> (t, string) result
(** [decode ~padding buf] reads a fragment whose last [padding] payload
    bytes rode outside [buf] as its carrier's padding (default 0: every
    byte is in [buf]). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

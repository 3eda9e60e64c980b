open Mmt_util
open Mmt_frame
module Cursor = Mmt_wire.Cursor

type age = {
  age_us : int;
  budget_us : int;
  aged : bool;
  hop_count : int;
  last_touch_ns : Units.Time.t;
}

type timely = { deadline : Units.Time.t; notify : Addr.Ip.t }

type int_record = {
  node_id : int;
  mode_id : int;
  hop_index : int;
  queue_depth : int;
  ingress_ns : Units.Time.t;
  egress_ns : Units.Time.t;
}

type int_stack = { records : int_record list; overflowed : bool }

let empty_int_stack = { records = []; overflowed = false }

type t = {
  config_id : int;
  kind : Feature.Kind.t;
  features : Feature.Set.t;
  experiment : Experiment_id.t;
  sequence : int option;
  retransmit_from : Addr.Ip.t option;
  timely : timely option;
  age : age option;
  pace_mbps : int option;
  backpressure_to : Addr.Ip.t option;
  int_stack : int_stack option;
}

let core_size = 8
let checksum_size = 4
let sequence_size = 4
let retransmit_size = 4
let timely_size = 12
let age_size = 20
let pace_size = 4
let backpressure_size = 4
let max_int_hops = 4
let int_record_size = 24
let int_ext_size = 4 + (max_int_hops * int_record_size)

let max_size =
  core_size + checksum_size + sequence_size + retransmit_size + timely_size
  + age_size + pace_size + backpressure_size + int_ext_size

let check_u32 what v =
  if v < 0 || v > 0xFFFFFFFF then
    invalid_arg (Printf.sprintf "Header: %s out of u32 range" what)

let check_u24 what v =
  if v < 0 || v > 0xFFFFFF then
    invalid_arg (Printf.sprintf "Header: %s out of u24 range" what)

let check_u16 what v =
  if v < 0 || v > 0xFFFF then
    invalid_arg (Printf.sprintf "Header: %s out of u16 range" what)

let check_u8 what v =
  if v < 0 || v > 0xFF then
    invalid_arg (Printf.sprintf "Header: %s out of u8 range" what)

let check_int_stack stack =
  if List.length stack.records > max_int_hops then
    invalid_arg
      (Printf.sprintf "Header: INT stack deeper than %d hops" max_int_hops);
  List.iter
    (fun r ->
      check_u16 "int.node_id" r.node_id;
      check_u8 "int.mode_id" r.mode_id;
      check_u8 "int.hop_index" r.hop_index;
      check_u32 "int.queue_depth" r.queue_depth)
    stack.records

let features_of_fields ~sequence ~retransmit_from ~timely ~age ~pace_mbps
    ~backpressure_to ~int_stack ~extra =
  let maybe feature opt set =
    match opt with Some _ -> Feature.Set.add feature set | None -> set
  in
  let base =
    Feature.Set.empty
    |> maybe Feature.Sequenced sequence
    |> maybe Feature.Reliable retransmit_from
    |> maybe Feature.Timely timely
    |> maybe Feature.Age_tracked age
    |> maybe Feature.Paced pace_mbps
    |> maybe Feature.Backpressured backpressure_to
    |> maybe Feature.Int_telemetry int_stack
  in
  List.fold_left
    (fun set feature ->
      match feature with
      | Feature.Duplicated | Feature.Encrypted | Feature.Checksummed ->
          Feature.Set.add feature set
      | Feature.Sequenced | Feature.Reliable | Feature.Timely
      | Feature.Age_tracked | Feature.Paced | Feature.Backpressured
      | Feature.Int_telemetry ->
          invalid_arg
            (Printf.sprintf
               "Header.create: feature %s carries a field; pass its value"
               (Feature.to_string feature)))
    base extra

let create ?(kind = Feature.Kind.Data) ?sequence ?retransmit_from ?timely ?age
    ?pace_mbps ?backpressure_to ?int_stack ?(extra_features = []) ~experiment () =
  Option.iter (check_u32 "sequence") sequence;
  Option.iter (fun a ->
      check_u32 "age_us" a.age_us;
      check_u32 "budget_us" a.budget_us;
      check_u24 "hop_count" a.hop_count)
    age;
  Option.iter (check_u32 "pace_mbps") pace_mbps;
  Option.iter check_int_stack int_stack;
  let features =
    features_of_fields ~sequence ~retransmit_from ~timely ~age ~pace_mbps
      ~backpressure_to ~int_stack ~extra:extra_features
  in
  {
    config_id = Feature.config_id_v1;
    kind;
    features;
    experiment;
    sequence;
    retransmit_from;
    timely;
    age;
    pace_mbps;
    backpressure_to;
    int_stack;
  }

let mode0 ~experiment = create ~experiment ()

let size t =
  let ext feature width = if Feature.Set.mem feature t.features then width else 0 in
  core_size
  + ext Feature.Checksummed checksum_size
  + ext Feature.Sequenced sequence_size
  + ext Feature.Reliable retransmit_size
  + ext Feature.Timely timely_size
  + ext Feature.Age_tracked age_size
  + ext Feature.Paced pace_size
  + ext Feature.Backpressured backpressure_size
  + ext Feature.Int_telemetry int_ext_size

let encode_int_stack w stack =
  Cursor.Writer.u8 w (List.length stack.records);
  Cursor.Writer.u8 w (if stack.overflowed then 1 else 0);
  Cursor.Writer.u16 w 0;
  List.iter
    (fun r ->
      Cursor.Writer.u16 w r.node_id;
      Cursor.Writer.u8 w r.mode_id;
      Cursor.Writer.u8 w r.hop_index;
      Cursor.Writer.u32_int w r.queue_depth;
      Cursor.Writer.u64 w (Units.Time.to_int64_ns r.ingress_ns);
      Cursor.Writer.u64 w (Units.Time.to_int64_ns r.egress_ns))
    stack.records;
  let unused = max_int_hops - List.length stack.records in
  if unused > 0 then Cursor.Writer.bytes w (Bytes.make (unused * int_record_size) '\000')

(* The checksum extension is the FIRST extension (right after the core)
   so a P4 verify stage finds it at a constant offset.  It is laid out
   as [u16 checksum | u16 zero-pad]; the checksum is the RFC 1071
   ones'-complement sum over the whole fixed header with the checksum
   field itself zeroed, which makes "sum over header = 0" the verify
   property. *)

let checksum_field_off ~off = off + core_size

let seal_in_place frame ~off ~size =
  let at = checksum_field_off ~off in
  Bytes.set_uint16_be frame at 0;
  Bytes.set_uint16_be frame at (Cursor.checksum frame ~off ~len:size)

let verify_in_place frame ~off ~size = Cursor.checksum frame ~off ~len:size = 0

let encode_into_raw w t =
  Cursor.Writer.u8 w t.config_id;
  Cursor.Writer.u24 w (Feature.encode_config_data ~kind:t.kind t.features);
  Cursor.Writer.u32 w (Experiment_id.to_int32 t.experiment);
  if Feature.Set.mem Feature.Checksummed t.features then begin
    (* Placeholder; [encode] seals once the header is fully written. *)
    Cursor.Writer.u16 w 0;
    Cursor.Writer.u16 w 0
  end;
  Option.iter (fun s -> Cursor.Writer.u32_int w s) t.sequence;
  Option.iter (fun ip -> Cursor.Writer.u32 w (Addr.Ip.to_int32 ip)) t.retransmit_from;
  Option.iter
    (fun tl ->
      Cursor.Writer.u64 w (Units.Time.to_int64_ns tl.deadline);
      Cursor.Writer.u32 w (Addr.Ip.to_int32 tl.notify))
    t.timely;
  Option.iter
    (fun a ->
      Cursor.Writer.u32_int w a.age_us;
      Cursor.Writer.u32_int w a.budget_us;
      Cursor.Writer.u8 w (if a.aged then 1 else 0);
      Cursor.Writer.u24 w a.hop_count;
      Cursor.Writer.u64 w (Units.Time.to_int64_ns a.last_touch_ns))
    t.age;
  Option.iter (fun p -> Cursor.Writer.u32_int w p) t.pace_mbps;
  Option.iter (fun ip -> Cursor.Writer.u32 w (Addr.Ip.to_int32 ip)) t.backpressure_to;
  Option.iter (encode_int_stack w) t.int_stack

let encode t =
  let w = Cursor.Writer.create (size t) in
  encode_into_raw w t;
  let frame = Cursor.Writer.contents w in
  if Feature.Set.mem Feature.Checksummed t.features then
    seal_in_place frame ~off:0 ~size:(size t);
  frame

let encode_into w t =
  if Feature.Set.mem Feature.Checksummed t.features then
    (* Sealing needs the finished bytes; build then splice. *)
    Cursor.Writer.bytes w (encode t)
  else encode_into_raw w t

let decode r =
  match
    let config_id = Cursor.Reader.u8 r in
    if config_id <> Feature.config_id_v1 then
      Error (Printf.sprintf "unknown configuration identifier %d" config_id)
    else
      match Feature.decode_config_data (Cursor.Reader.u24 r) with
      | Error e -> Error e
      | Ok (kind, features) ->
          let experiment = Experiment_id.of_int32 (Cursor.Reader.u32 r) in
          if Feature.Set.mem Feature.Checksummed features then
            (* Wire artifact only: integrity is checked on the raw
               bytes (View.verify / Header.verify) before decoding. *)
            Cursor.Reader.skip r checksum_size;
          let if_feature feature read =
            if Feature.Set.mem feature features then Some (read ()) else None
          in
          let sequence = if_feature Feature.Sequenced (fun () -> Cursor.Reader.u32_int r) in
          let retransmit_from =
            if_feature Feature.Reliable (fun () ->
                Addr.Ip.of_int32 (Cursor.Reader.u32 r))
          in
          let timely =
            if_feature Feature.Timely (fun () ->
                let deadline = Units.Time.of_int64_ns (Cursor.Reader.u64 r) in
                let notify = Addr.Ip.of_int32 (Cursor.Reader.u32 r) in
                { deadline; notify })
          in
          let age =
            if_feature Feature.Age_tracked (fun () ->
                let age_us = Cursor.Reader.u32_int r in
                let budget_us = Cursor.Reader.u32_int r in
                let flags = Cursor.Reader.u8 r in
                let hop_count = Cursor.Reader.u24 r in
                let last_touch_ns = Units.Time.of_int64_ns (Cursor.Reader.u64 r) in
                { age_us; budget_us; aged = flags land 1 = 1; hop_count; last_touch_ns })
          in
          let pace_mbps = if_feature Feature.Paced (fun () -> Cursor.Reader.u32_int r) in
          let backpressure_to =
            if_feature Feature.Backpressured (fun () ->
                Addr.Ip.of_int32 (Cursor.Reader.u32 r))
          in
          let int_stack =
            if not (Feature.Set.mem Feature.Int_telemetry features) then Ok None
            else begin
              let count = Cursor.Reader.u8 r in
              let flags = Cursor.Reader.u8 r in
              let _reserved = Cursor.Reader.u16 r in
              if count > max_int_hops then
                Error (Printf.sprintf "INT stack count %d exceeds %d" count max_int_hops)
              else begin
                let records =
                  List.init count (fun _ ->
                      let node_id = Cursor.Reader.u16 r in
                      let mode_id = Cursor.Reader.u8 r in
                      let hop_index = Cursor.Reader.u8 r in
                      let queue_depth = Cursor.Reader.u32_int r in
                      let ingress_ns = Units.Time.of_int64_ns (Cursor.Reader.u64 r) in
                      let egress_ns = Units.Time.of_int64_ns (Cursor.Reader.u64 r) in
                      { node_id; mode_id; hop_index; queue_depth; ingress_ns; egress_ns })
                in
                Cursor.Reader.skip r ((max_int_hops - count) * int_record_size);
                Ok (Some { records; overflowed = flags land 1 = 1 })
              end
            end
          in
          match int_stack with
          | Error e -> Error e
          | Ok int_stack ->
              Ok
                {
                  config_id;
                  kind;
                  features;
                  experiment;
                  sequence;
                  retransmit_from;
                  timely;
                  age;
                  pace_mbps;
                  backpressure_to;
                  int_stack;
                }
  with
  | result -> result
  | exception Cursor.Out_of_bounds what -> Error ("truncated header: " ^ what)

let decode_bytes ?(off = 0) buf =
  decode (Cursor.Reader.of_bytes ~off buf)

(* Field surgery: each [with_*] re-derives the feature bit. *)

let with_feature t feature =
  { t with features = Feature.Set.add feature t.features }

let with_sequence t sequence =
  check_u32 "sequence" sequence;
  { (with_feature t Feature.Sequenced) with sequence = Some sequence }

let with_retransmit_from t ip =
  { (with_feature t Feature.Reliable) with retransmit_from = Some ip }

let with_timely t timely = { (with_feature t Feature.Timely) with timely = Some timely }

let with_age t age =
  check_u32 "age_us" age.age_us;
  check_u32 "budget_us" age.budget_us;
  check_u24 "hop_count" age.hop_count;
  { (with_feature t Feature.Age_tracked) with age = Some age }

let with_pace t pace =
  check_u32 "pace_mbps" pace;
  { (with_feature t Feature.Paced) with pace_mbps = Some pace }

let with_backpressure_to t ip =
  { (with_feature t Feature.Backpressured) with backpressure_to = Some ip }

let with_int_stack t stack =
  check_int_stack stack;
  { (with_feature t Feature.Int_telemetry) with int_stack = Some stack }

let with_checksummed t = with_feature t Feature.Checksummed

let with_kind t kind = { t with kind }

let strip t feature =
  let features = Feature.Set.remove feature t.features in
  match feature with
  | Feature.Sequenced -> { t with features; sequence = None }
  | Feature.Reliable -> { t with features; retransmit_from = None }
  | Feature.Timely -> { t with features; timely = None }
  | Feature.Age_tracked -> { t with features; age = None }
  | Feature.Paced -> { t with features; pace_mbps = None }
  | Feature.Backpressured -> { t with features; backpressure_to = None }
  | Feature.Int_telemetry -> { t with features; int_stack = None }
  | Feature.Duplicated | Feature.Encrypted | Feature.Checksummed ->
      { t with features }

let offset_of_age t =
  if not (Feature.Set.mem Feature.Age_tracked t.features) then None
  else begin
    let skip feature width =
      if Feature.Set.mem feature t.features then width else 0
    in
    Some
      (core_size
      + skip Feature.Checksummed checksum_size
      + skip Feature.Sequenced sequence_size
      + skip Feature.Reliable retransmit_size
      + skip Feature.Timely timely_size)
  end

let offset_of_int t =
  if not (Feature.Set.mem Feature.Int_telemetry t.features) then None
  else begin
    let skip feature width =
      if Feature.Set.mem feature t.features then width else 0
    in
    Some
      (core_size
      + skip Feature.Checksummed checksum_size
      + skip Feature.Sequenced sequence_size
      + skip Feature.Reliable retransmit_size
      + skip Feature.Timely timely_size
      + skip Feature.Age_tracked age_size
      + skip Feature.Paced pace_size
      + skip Feature.Backpressured backpressure_size)
  end

let push_int_record_in_place frame ~ext_off ~node_id ~mode_id ~queue_depth
    ~ingress ~egress =
  (* Layout: u8 count | u8 flags | u16 reserved | max_int_hops x
     (u16 node | u8 mode | u8 hop | u32 queue | u64 ingress | u64 egress) *)
  let count = Char.code (Bytes.get frame ext_off) in
  if count >= max_int_hops then begin
    let flags = Char.code (Bytes.get frame (ext_off + 1)) in
    Bytes.set frame (ext_off + 1) (Char.chr (flags lor 1));
    None
  end
  else begin
    let slot = ext_off + 4 + (count * int_record_size) in
    Bytes.set_uint16_be frame slot (node_id land 0xFFFF);
    Bytes.set frame (slot + 2) (Char.chr (mode_id land 0xFF));
    Bytes.set frame (slot + 3) (Char.chr (count land 0xFF));
    Bytes.set_int32_be frame (slot + 4)
      (Int32.of_int (min queue_depth 0xFFFFFFFF));
    Bytes.set_int64_be frame (slot + 8) (Units.Time.to_int64_ns ingress);
    Bytes.set_int64_be frame (slot + 16) (Units.Time.to_int64_ns egress);
    Bytes.set frame ext_off (Char.chr (count + 1));
    Some count
  end

let touch_age_in_place frame ~ext_off ~now =
  (* Layout: u32 age_us | u32 budget_us | u8 flags | u24 hops | u64 touch *)
  let age_us = Int32.to_int (Bytes.get_int32_be frame ext_off) land 0xFFFFFFFF in
  let budget_us =
    Int32.to_int (Bytes.get_int32_be frame (ext_off + 4)) land 0xFFFFFFFF
  in
  let flags = Char.code (Bytes.get frame (ext_off + 8)) in
  let hops =
    (Char.code (Bytes.get frame (ext_off + 9)) lsl 16)
    lor Bytes.get_uint16_be frame (ext_off + 10)
  in
  let last_touch = Int64.to_int (Bytes.get_int64_be frame (ext_off + 12)) in
  let now_ns = Units.Time.to_ns now in
  let elapsed_ns = max 0 (now_ns - last_touch) in
  let age_us = age_us + (elapsed_ns / 1_000) in
  let age_us = min age_us 0xFFFFFFFF in
  let aged = flags land 1 = 1 || age_us > budget_us in
  let hops = min (hops + 1) 0xFFFFFF in
  Bytes.set_int32_be frame ext_off (Int32.of_int age_us);
  Bytes.set frame (ext_off + 8) (Char.chr (if aged then flags lor 1 else flags));
  Bytes.set frame (ext_off + 9) (Char.chr ((hops lsr 16) land 0xFF));
  Bytes.set_uint16_be frame (ext_off + 10) (hops land 0xFFFF);
  Bytes.set_int64_be frame (ext_off + 12) (Int64.of_int now_ns);
  (age_us, aged)

(* Zero-copy header views ------------------------------------------------ *)

module View = struct
  type t = {
    frame : bytes;
    base : int;
    kind : Feature.Kind.t;
    features : Feature.Set.t;
    size : int;
    (* Absolute byte offsets of each extension within [frame]; -1 when
       the feature bit is clear.  Computed once from the feature bits,
       exactly as a P4 parser state machine would. *)
    off_checksum : int;
    off_sequence : int;
    off_retransmit : int;
    off_timely : int;
    off_age : int;
    off_pace : int;
    off_backpressure : int;
    off_int : int;
  }

  let of_frame ?(off = 0) frame =
    if off < 0 || Bytes.length frame - off < core_size then
      Error
        (Printf.sprintf "truncated header: need %d bytes, have %d" core_size
           (Bytes.length frame - off))
    else begin
      let config_id = Char.code (Bytes.get frame off) in
      if config_id <> Feature.config_id_v1 then
        Error (Printf.sprintf "unknown configuration identifier %d" config_id)
      else
        let data =
          (Char.code (Bytes.get frame (off + 1)) lsl 16)
          lor Bytes.get_uint16_be frame (off + 2)
        in
        match Feature.decode_config_data data with
        | Error e -> Error e
        | Ok (kind, features) ->
            let cursor = ref (off + core_size) in
            let place feature width =
              if Feature.Set.mem feature features then begin
                let at = !cursor in
                cursor := at + width;
                at
              end
              else -1
            in
            let off_checksum = place Feature.Checksummed checksum_size in
            let off_sequence = place Feature.Sequenced sequence_size in
            let off_retransmit = place Feature.Reliable retransmit_size in
            let off_timely = place Feature.Timely timely_size in
            let off_age = place Feature.Age_tracked age_size in
            let off_pace = place Feature.Paced pace_size in
            let off_backpressure = place Feature.Backpressured backpressure_size in
            let off_int = place Feature.Int_telemetry int_ext_size in
            let size = !cursor - off in
            if Bytes.length frame - off < size then
              Error
                (Printf.sprintf "truncated header: need %d bytes, have %d" size
                   (Bytes.length frame - off))
            else if
              off_int >= 0 && Char.code (Bytes.get frame off_int) > max_int_hops
            then
              Error
                (Printf.sprintf "INT stack count %d exceeds %d"
                   (Char.code (Bytes.get frame off_int))
                   max_int_hops)
            else
              Ok
                {
                  frame;
                  base = off;
                  kind;
                  features;
                  size;
                  off_checksum;
                  off_sequence;
                  off_retransmit;
                  off_timely;
                  off_age;
                  off_pace;
                  off_backpressure;
                  off_int;
                }
    end

  let kind v = v.kind
  let features v = v.features
  let size v = v.size
  let has v feature = Feature.Set.mem feature v.features

  let missing what = invalid_arg ("Header.View." ^ what ^ ": feature not present")
  let need at what = if at < 0 then missing what

  let u32_at frame at = Int32.to_int (Bytes.get_int32_be frame at) land 0xFFFFFFFF
  let set_u32_at frame at v = Bytes.set_int32_be frame at (Int32.of_int v)

  (* Every mutator reseals when the header is checksummed — in P4 this
     is the deparser's checksum-update stage.  Non-checksummed headers
     pay a single branch. *)
  let reseal v =
    if v.off_checksum >= 0 then seal_in_place v.frame ~off:v.base ~size:v.size

  let checksum v =
    need v.off_checksum "checksum";
    Bytes.get_uint16_be v.frame v.off_checksum

  let verify v =
    v.off_checksum < 0 || verify_in_place v.frame ~off:v.base ~size:v.size

  let experiment v = Experiment_id.of_int32 (Bytes.get_int32_be v.frame (v.base + 4))

  let sequence v =
    need v.off_sequence "sequence";
    u32_at v.frame v.off_sequence

  let set_sequence v s =
    need v.off_sequence "set_sequence";
    check_u32 "sequence" s;
    set_u32_at v.frame v.off_sequence s;
    reseal v

  let retransmit_from v =
    need v.off_retransmit "retransmit_from";
    Addr.Ip.of_int32 (Bytes.get_int32_be v.frame v.off_retransmit)

  let set_retransmit_from v ip =
    need v.off_retransmit "set_retransmit_from";
    Bytes.set_int32_be v.frame v.off_retransmit (Addr.Ip.to_int32 ip);
    reseal v

  let deadline_ns v =
    need v.off_timely "deadline_ns";
    Units.Time.of_int64_ns (Bytes.get_int64_be v.frame v.off_timely)

  let set_deadline_ns v deadline =
    need v.off_timely "set_deadline_ns";
    Bytes.set_int64_be v.frame v.off_timely (Units.Time.to_int64_ns deadline);
    reseal v

  let notify v =
    need v.off_timely "notify";
    Addr.Ip.of_int32 (Bytes.get_int32_be v.frame (v.off_timely + 8))

  let set_notify v ip =
    need v.off_timely "set_notify";
    Bytes.set_int32_be v.frame (v.off_timely + 8) (Addr.Ip.to_int32 ip);
    reseal v

  let age_us v =
    need v.off_age "age_us";
    u32_at v.frame v.off_age

  let budget_us v =
    need v.off_age "budget_us";
    u32_at v.frame (v.off_age + 4)

  let aged v =
    need v.off_age "aged";
    Char.code (Bytes.get v.frame (v.off_age + 8)) land 1 = 1

  let hop_count v =
    need v.off_age "hop_count";
    (Char.code (Bytes.get v.frame (v.off_age + 9)) lsl 16)
    lor Bytes.get_uint16_be v.frame (v.off_age + 10)

  let last_touch_ns v =
    need v.off_age "last_touch_ns";
    Units.Time.of_int64_ns (Bytes.get_int64_be v.frame (v.off_age + 12))

  let touch_age v ~now =
    need v.off_age "touch_age";
    let result = touch_age_in_place v.frame ~ext_off:v.off_age ~now in
    reseal v;
    result

  let pace_mbps v =
    need v.off_pace "pace_mbps";
    u32_at v.frame v.off_pace

  let set_pace_mbps v pace =
    need v.off_pace "set_pace_mbps";
    check_u32 "pace_mbps" pace;
    set_u32_at v.frame v.off_pace pace;
    reseal v

  let backpressure_to v =
    need v.off_backpressure "backpressure_to";
    Addr.Ip.of_int32 (Bytes.get_int32_be v.frame v.off_backpressure)

  let set_backpressure_to v ip =
    need v.off_backpressure "set_backpressure_to";
    Bytes.set_int32_be v.frame v.off_backpressure (Addr.Ip.to_int32 ip);
    reseal v

  let int_count v =
    need v.off_int "int_count";
    Char.code (Bytes.get v.frame v.off_int)

  let int_overflowed v =
    need v.off_int "int_overflowed";
    Char.code (Bytes.get v.frame (v.off_int + 1)) land 1 = 1

  let int_record v i =
    need v.off_int "int_record";
    if i < 0 || i >= int_count v then
      invalid_arg
        (Printf.sprintf "Header.View.int_record: slot %d of %d" i (int_count v));
    let slot = v.off_int + 4 + (i * int_record_size) in
    {
      node_id = Bytes.get_uint16_be v.frame slot;
      mode_id = Char.code (Bytes.get v.frame (slot + 2));
      hop_index = Char.code (Bytes.get v.frame (slot + 3));
      queue_depth = u32_at v.frame (slot + 4);
      ingress_ns = Units.Time.of_int64_ns (Bytes.get_int64_be v.frame (slot + 8));
      egress_ns = Units.Time.of_int64_ns (Bytes.get_int64_be v.frame (slot + 16));
    }

  let int_records v = List.init (int_count v) (int_record v)

  let push_int_record v ~node_id ~mode_id ~queue_depth ~ingress ~egress =
    need v.off_int "push_int_record";
    let result =
      push_int_record_in_place v.frame ~ext_off:v.off_int ~node_id ~mode_id
        ~queue_depth ~ingress ~egress
    in
    reseal v;
    result

  let set_duplicated v =
    let data =
      Feature.encode_config_data ~kind:v.kind
        (Feature.Set.add Feature.Duplicated v.features)
    in
    Bytes.set v.frame (v.base + 1) (Char.chr ((data lsr 16) land 0xFF));
    Bytes.set_uint16_be v.frame (v.base + 2) (data land 0xFFFF);
    reseal v

  let stripped_int_length v =
    need v.off_int "stripped_int_length";
    Bytes.length v.frame - v.base - int_ext_size

  let strip_int_into v out ~off =
    need v.off_int "strip_int_into";
    let frame_len = Bytes.length v.frame in
    let head_len = v.off_int - v.base in
    let tail_off = v.off_int + int_ext_size in
    let tail_len = frame_len - tail_off in
    Bytes.blit v.frame v.base out off head_len;
    Bytes.blit v.frame tail_off out (off + head_len) tail_len;
    let data =
      Feature.encode_config_data ~kind:v.kind
        (Feature.Set.remove Feature.Int_telemetry v.features)
    in
    Bytes.set out (off + 1) (Char.chr ((data lsr 16) land 0xFF));
    Bytes.set_uint16_be out (off + 2) (data land 0xFFFF);
    if v.off_checksum >= 0 then
      seal_in_place out ~off ~size:(v.size - int_ext_size)

  let strip_int v =
    let out = Bytes.create (stripped_int_length v) in
    strip_int_into v out ~off:0;
    out
end

let equal a b =
  a.config_id = b.config_id
  && Feature.Kind.equal a.kind b.kind
  && Feature.Set.equal a.features b.features
  && Experiment_id.equal a.experiment b.experiment
  && a.sequence = b.sequence
  && Option.equal Addr.Ip.equal a.retransmit_from b.retransmit_from
  && Option.equal
       (fun (x : timely) y ->
         Units.Time.equal x.deadline y.deadline && Addr.Ip.equal x.notify y.notify)
       a.timely b.timely
  && Option.equal
       (fun (x : age) y ->
         x.age_us = y.age_us && x.budget_us = y.budget_us && x.aged = y.aged
         && x.hop_count = y.hop_count
         && Units.Time.equal x.last_touch_ns y.last_touch_ns)
       a.age b.age
  && a.pace_mbps = b.pace_mbps
  && Option.equal Addr.Ip.equal a.backpressure_to b.backpressure_to
  && Option.equal
       (fun (x : int_stack) y ->
         x.overflowed = y.overflowed
         && List.equal
              (fun (p : int_record) q ->
                p.node_id = q.node_id && p.mode_id = q.mode_id
                && p.hop_index = q.hop_index
                && p.queue_depth = q.queue_depth
                && Units.Time.equal p.ingress_ns q.ingress_ns
                && Units.Time.equal p.egress_ns q.egress_ns)
              x.records y.records)
       a.int_stack b.int_stack

let pp fmt t =
  Format.fprintf fmt "@[mmt{%s %a %a" (Feature.Kind.to_string t.kind)
    Experiment_id.pp t.experiment Feature.Set.pp t.features;
  Option.iter (fun s -> Format.fprintf fmt " seq=%d" s) t.sequence;
  Option.iter (fun ip -> Format.fprintf fmt " rtx=%a" Addr.Ip.pp ip) t.retransmit_from;
  Option.iter
    (fun tl ->
      Format.fprintf fmt " deadline=%a notify=%a" Units.Time.pp tl.deadline
        Addr.Ip.pp tl.notify)
    t.timely;
  Option.iter
    (fun a ->
      Format.fprintf fmt " age=%dus/%dus%s hops=%d" a.age_us a.budget_us
        (if a.aged then "(AGED)" else "")
        a.hop_count)
    t.age;
  Option.iter (fun p -> Format.fprintf fmt " pace=%dMbps" p) t.pace_mbps;
  Option.iter
    (fun ip -> Format.fprintf fmt " bp=%a" Addr.Ip.pp ip)
    t.backpressure_to;
  Option.iter
    (fun stack ->
      Format.fprintf fmt " int=%d/%d%s"
        (List.length stack.records)
        max_int_hops
        (if stack.overflowed then "(OVERFLOW)" else ""))
    t.int_stack;
  Format.fprintf fmt "}@]"

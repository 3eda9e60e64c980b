(* Mode descriptions, legality rules, retransmission buffers. *)
open Mmt_util
open Mmt_frame

let buffer_ip = Addr.Ip.of_octets 10 0 1 1
let notify_ip = Addr.Ip.of_octets 10 0 0 1

let wan_mode =
  Mmt.Mode.make ~name:"wan" ~reliable:buffer_ip
    ~deadline_budget:(Units.Time.ms 20., notify_ip)
    ~age_budget_us:20_000 ()

let test_identification_mode_empty () =
  Alcotest.(check int) "no features" 0
    (Mmt.Feature.Set.cardinal Mmt.Mode.identification.Mmt.Mode.features);
  Alcotest.(check bool) "well-formed" true
    (Mmt.Mode.check Mmt.Mode.identification = Ok ())

let test_make_derives_features () =
  let open Mmt.Feature in
  let f = wan_mode.Mmt.Mode.features in
  Alcotest.(check bool) "sequenced" true (Set.mem Sequenced f);
  Alcotest.(check bool) "reliable" true (Set.mem Reliable f);
  Alcotest.(check bool) "timely" true (Set.mem Timely f);
  Alcotest.(check bool) "age" true (Set.mem Age_tracked f);
  Alcotest.(check bool) "no pace" false (Set.mem Paced f)

let test_check_passes_well_formed () =
  Alcotest.(check bool) "wan mode ok" true (Mmt.Mode.check wan_mode = Ok ())

let test_check_catches_inconsistency () =
  (* Hand-build an inconsistent mode: Reliable feature but no buffer. *)
  let broken =
    {
      wan_mode with
      Mmt.Mode.retransmit_from = None;
    }
  in
  Alcotest.(check bool) "inconsistent rejected" true
    (match Mmt.Mode.check broken with Error _ -> true | Ok _ -> false)

let test_transition_mode0_to_wan_legal () =
  Alcotest.(check bool) "activate features" true
    (Mmt.Mode.transition_legal ~from_mode:Mmt.Mode.identification ~to_mode:wan_mode
     = Ok ())

let test_transition_strip_all_legal () =
  Alcotest.(check bool) "leave recoverable region whole" true
    (Mmt.Mode.transition_legal ~from_mode:wan_mode ~to_mode:Mmt.Mode.identification
     = Ok ())

let test_transition_strip_reliable_keep_sequenced_illegal () =
  let seq_only =
    {
      Mmt.Mode.identification with
      Mmt.Mode.name = "seq-only";
      features = Mmt.Feature.Set.of_list [ Mmt.Feature.Sequenced ];
    }
  in
  Alcotest.(check bool) "stranding gaps rejected" true
    (match Mmt.Mode.transition_legal ~from_mode:wan_mode ~to_mode:seq_only with
    | Error _ -> true
    | Ok _ -> false)

let test_transition_reliable_without_sequenced_illegal () =
  let broken =
    {
      Mmt.Mode.identification with
      Mmt.Mode.name = "broken";
      features = Mmt.Feature.Set.of_list [ Mmt.Feature.Reliable ];
    }
  in
  Alcotest.(check bool) "rejected" true
    (match
       Mmt.Mode.transition_legal ~from_mode:Mmt.Mode.identification ~to_mode:broken
     with
    | Error _ -> true
    | Ok _ -> false)

(* Retransmission buffer ---------------------------------------------------- *)

let frame_of_size n = Bytes.make n 'x'

let test_retx_store_fetch () =
  let buffer = Mmt.Retx_buffer.create ~capacity:(Units.Size.kib 1) in
  Mmt.Retx_buffer.store buffer ~seq:1 ~born:(Units.Time.us 5.) ~padding:0 (frame_of_size 100);
  (match Mmt.Retx_buffer.fetch buffer ~seq:1 with
  | Some entry ->
      Alcotest.(check int) "frame size" 100 (Bytes.length entry.Mmt.Retx_buffer.frame);
      Alcotest.(check bool) "born preserved" true
        (Units.Time.equal entry.Mmt.Retx_buffer.born (Units.Time.us 5.))
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check bool) "miss" true (Mmt.Retx_buffer.fetch buffer ~seq:2 = None);
  let stats = Mmt.Retx_buffer.stats buffer in
  Alcotest.(check int) "hits" 1 stats.Mmt.Retx_buffer.hits;
  Alcotest.(check int) "misses" 1 stats.Mmt.Retx_buffer.misses

let test_retx_eviction_oldest_first () =
  let buffer = Mmt.Retx_buffer.create ~capacity:(Units.Size.bytes 300) in
  for seq = 0 to 3 do
    Mmt.Retx_buffer.store buffer ~seq ~born:Units.Time.zero ~padding:0 (frame_of_size 100)
  done;
  Alcotest.(check bool) "oldest evicted" false (Mmt.Retx_buffer.contains buffer ~seq:0);
  Alcotest.(check bool) "newest kept" true (Mmt.Retx_buffer.contains buffer ~seq:3);
  let stats = Mmt.Retx_buffer.stats buffer in
  Alcotest.(check int) "evicted" 1 stats.Mmt.Retx_buffer.evicted;
  Alcotest.(check int) "entries" 3 stats.Mmt.Retx_buffer.entries;
  Alcotest.(check int) "occupancy" 300
    (Units.Size.to_bytes stats.Mmt.Retx_buffer.occupancy)

let test_retx_overwrite_same_seq () =
  let buffer = Mmt.Retx_buffer.create ~capacity:(Units.Size.kib 1) in
  Mmt.Retx_buffer.store buffer ~seq:5 ~born:Units.Time.zero ~padding:0 (frame_of_size 100);
  Mmt.Retx_buffer.store buffer ~seq:5 ~born:Units.Time.zero ~padding:0 (frame_of_size 200);
  (match Mmt.Retx_buffer.fetch buffer ~seq:5 with
  | Some entry -> Alcotest.(check int) "latest wins" 200 (Bytes.length entry.Mmt.Retx_buffer.frame)
  | None -> Alcotest.fail "expected hit");
  let stats = Mmt.Retx_buffer.stats buffer in
  Alcotest.(check int) "occupancy after overwrite" 200
    (Units.Size.to_bytes stats.Mmt.Retx_buffer.occupancy)

let test_retx_oversized_frame_rejected () =
  let buffer = Mmt.Retx_buffer.create ~capacity:(Units.Size.bytes 50) in
  Mmt.Retx_buffer.store buffer ~seq:1 ~born:Units.Time.zero ~padding:0 (frame_of_size 100);
  Alcotest.(check bool) "not stored" false (Mmt.Retx_buffer.contains buffer ~seq:1)

(* A descriptor (a 64-byte materialized frame plus padding) must account
   exactly like the full frame it stands for: same occupancy, high-water
   marks, evictions and surviving entries, under overwrites, evictions
   and an oversized store. *)
let test_retx_descriptor_accounts_like_full_frame () =
  let header = 64 in
  let full = Mmt.Retx_buffer.create ~capacity:(Units.Size.kib 16) in
  let descriptor = Mmt.Retx_buffer.create ~capacity:(Units.Size.kib 16) in
  let sizes = [ 4096; 900; 7200; 7200; 4096; 20_000; 1500; 9000; 64; 3000 ] in
  List.iteri
    (fun i size ->
      (* Sequence 3 is overwritten by a later store. *)
      let seq = if i = 6 then 3 else i in
      let born = Units.Time.us (float_of_int i) in
      Mmt.Retx_buffer.store full ~seq ~born ~padding:0 (frame_of_size size);
      Mmt.Retx_buffer.store descriptor ~seq ~born ~padding:(size - header)
        (frame_of_size header);
      let a = Mmt.Retx_buffer.stats full and b = Mmt.Retx_buffer.stats descriptor in
      let bytes = Units.Size.to_bytes in
      Alcotest.(check int) "occupancy" (bytes a.occupancy) (bytes b.occupancy);
      Alcotest.(check int) "occupancy high water"
        (bytes a.occupancy_high_water) (bytes b.occupancy_high_water);
      Alcotest.(check int) "entries" a.entries b.entries;
      Alcotest.(check int) "entries high water" a.entries_high_water
        b.entries_high_water;
      Alcotest.(check int) "stored" a.stored b.stored;
      Alcotest.(check int) "evicted" a.evicted b.evicted)
    sizes;
  let survivors buffer =
    List.filter (fun seq -> Mmt.Retx_buffer.contains buffer ~seq) (List.init 10 Fun.id)
  in
  Alcotest.(check (list int)) "same eviction order" (survivors full) (survivors descriptor);
  Alcotest.(check bool) "evictions happened" true
    ((Mmt.Retx_buffer.stats full).Mmt.Retx_buffer.evicted > 1);
  List.iter
    (fun seq ->
      match (Mmt.Retx_buffer.fetch full ~seq, Mmt.Retx_buffer.fetch descriptor ~seq) with
      | Some a, Some b ->
          Alcotest.(check int) "wire bytes"
            (Bytes.length a.Mmt.Retx_buffer.frame)
            (Bytes.length b.Mmt.Retx_buffer.frame + b.Mmt.Retx_buffer.padding);
          Alcotest.(check bool) "born" true
            (Units.Time.equal a.Mmt.Retx_buffer.born b.Mmt.Retx_buffer.born)
      | _ -> Alcotest.fail "survivor missing")
    (survivors full)

let qcheck_retx_capacity_invariant =
  QCheck.Test.make ~name:"occupancy never exceeds capacity" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 1 400))
    (fun sizes ->
      let buffer = Mmt.Retx_buffer.create ~capacity:(Units.Size.bytes 1000) in
      List.iteri
        (fun seq size ->
          Mmt.Retx_buffer.store buffer ~seq ~born:Units.Time.zero ~padding:0 (frame_of_size size))
        sizes;
      Units.Size.to_bytes (Mmt.Retx_buffer.stats buffer).Mmt.Retx_buffer.occupancy <= 1000)

let suite =
  [
    Alcotest.test_case "identification mode" `Quick test_identification_mode_empty;
    Alcotest.test_case "make derives features" `Quick test_make_derives_features;
    Alcotest.test_case "check well-formed" `Quick test_check_passes_well_formed;
    Alcotest.test_case "check inconsistency" `Quick test_check_catches_inconsistency;
    Alcotest.test_case "transition activate" `Quick test_transition_mode0_to_wan_legal;
    Alcotest.test_case "transition strip all" `Quick test_transition_strip_all_legal;
    Alcotest.test_case "transition strand gaps" `Quick
      test_transition_strip_reliable_keep_sequenced_illegal;
    Alcotest.test_case "reliable needs sequenced" `Quick
      test_transition_reliable_without_sequenced_illegal;
    Alcotest.test_case "retx store/fetch" `Quick test_retx_store_fetch;
    Alcotest.test_case "retx eviction" `Quick test_retx_eviction_oldest_first;
    Alcotest.test_case "retx overwrite" `Quick test_retx_overwrite_same_seq;
    Alcotest.test_case "retx oversized" `Quick test_retx_oversized_frame_rejected;
    Alcotest.test_case "retx descriptor accounts like full frame" `Quick
      test_retx_descriptor_accounts_like_full_frame;
    QCheck_alcotest.to_alcotest qcheck_retx_capacity_invariant;
  ]

(* The sharded runner's contract: running a topology cut at its WAN
   links across N domains produces byte-for-byte the execution a
   single engine would have produced.  The tests here build the same
   scenario through [Shard.build] at different shard counts and
   compare everything observable — event logs, stats, event counts —
   plus the pool-recycling hazard at the domain boundary. *)
open Mmt_util
open Mmt_sim

(* A star of [islands] islands around a hub, each joined to the hub by
   a WAN-class duplex pair (so every island is a cut component).
   Island sources fire packets at the hub; the hub bounces every
   packet back to its origin.  All observable activity funnels into
   per-node logs keyed by node name, merged in name order, so the
   transcript is a total record of delivery order and timing. *)
let build_star ?(impair = false) ?(faults = false) ~islands ~packets ~lognow
    topo =
  let hub = Topology.add_node topo ~name:"hub" in
  let logs = Hashtbl.create 8 in
  let log_of name =
    match Hashtbl.find_opt logs name with
    | Some b -> b
    | None ->
        let b = Buffer.create 256 in
        Hashtbl.replace logs name b;
        b
  in
  let back = Hashtbl.create 8 in
  Node.set_handler hub (fun p ->
      let now = lognow (Topology.node_engine topo hub) in
      Buffer.add_string (log_of "hub")
        (Printf.sprintf "%s len=%d hops=%d\n" (Units.Time.to_string now)
           (Bytes.length (Packet.frame p))
           p.Packet.hops);
      (* Bounce home: frame byte 0 names the island. *)
      let island = Char.code (Bytes.get (Packet.frame p) 0) in
      Link.send (Hashtbl.find back island) p);
  for i = 0 to islands - 1 do
    let name = Printf.sprintf "island%d" i in
    let node = Topology.add_node topo ~name in
    (* Per-link impairment state is link-local (each rng is consumed
       only by its link's transmitter, in transmit order), so a lossy
       run is as deterministic as a clean one. *)
    let loss () =
      if impair then
        Loss.bernoulli ~drop:0.05 ~corrupt:0.02
          ~rng:(Rng.create ~seed:(Int64.of_int (1000 + i)))
      else Loss.perfect
    in
    let up, down =
      Topology.duplex topo ~a:node ~b:hub ~rate:(Units.Rate.gbps 10.)
        ~propagation:(Units.Time.ms (2. +. float_of_int i))
        ~loss_ab:(loss ()) ~loss_ba:(loss ()) ()
    in
    Hashtbl.replace back i down;
    if faults then begin
      (* A fault plan in miniature: down the uplink mid-run, restore it
         later, scheduled on the link's owning (source-side) engine as
         the chaos injector does. *)
      let engine_up = Topology.node_engine topo node in
      let down_at = Units.Time.ms (3. +. float_of_int i) in
      let up_at = Units.Time.ms (6. +. (2. *. float_of_int i)) in
      ignore (Engine.schedule engine_up ~at:down_at (fun () -> Link.set_up up false));
      ignore (Engine.schedule engine_up ~at:up_at (fun () -> Link.set_up up true))
    end;
    Node.set_handler node (fun p ->
        let now = lognow (Topology.node_engine topo node) in
        Buffer.add_string (log_of name)
          (Printf.sprintf "%s len=%d hops=%d\n" (Units.Time.to_string now)
             (Bytes.length (Packet.frame p))
             p.Packet.hops));
    let engine = Topology.node_engine topo node in
    let ids = Topology.id_source topo node in
    for k = 0 to packets - 1 do
      ignore
        (Engine.schedule engine
           ~at:(Units.Time.us (float_of_int ((k * 137) + (i * 31))))
           (fun () ->
             let frame = Bytes.create (64 + k) in
             Bytes.set frame 0 (Char.chr i);
             let p =
               Packet.create ~id:(ids ()) ~born:(Engine.now engine) frame
             in
             Link.send up p))
    done
  done;
  logs

let transcript topo logs =
  let nodes =
    Hashtbl.fold (fun name b acc -> (name, Buffer.contents b) :: acc) logs []
    |> List.sort compare
    |> List.map (fun (name, s) -> "== " ^ name ^ " ==\n" ^ s)
    |> String.concat ""
  in
  (* Link stats in creation order: loss, fault and queue accounting
     must match mode-for-mode, not just the delivered payloads. *)
  let stats =
    Topology.links topo
    |> List.map (fun link ->
           let s = Link.stats link in
           Printf.sprintf
             "%s offered=%d transmitted=%d delivered=%d qdrop=%d loss=%d \
              corrupt=%d fault=%d bytes=%d\n"
             (Link.name link) s.Link.offered s.Link.transmitted
             s.Link.delivered s.Link.queue_drops s.Link.loss_drops
             s.Link.corrupted s.Link.fault_drops s.Link.delivered_bytes)
    |> String.concat ""
  in
  nodes ^ "== links ==\n" ^ stats

(* With [until], every engine's clock is clamped to the horizon in
   both modes, so [Engine.now] inside handlers is directly
   comparable.  Without a horizon, handlers must not read [now] (the
   sharded engines' clocks advance in window caps) — [run_to_quiescence]
   below exercises that path with time-free logs. *)
let run_star ?until ?impair ?faults ~islands ~packets ~lognow shards =
  let topo, logs, runner =
    Shard.build ~shards (build_star ?impair ?faults ~islands ~packets ~lognow)
  in
  (match runner with
  | None -> Engine.run ?until (Topology.engine topo)
  | Some r -> Shard.run ?until r);
  let events =
    match runner with
    | None -> Engine.processed (Topology.engine topo)
    | Some r -> Shard.events r
  in
  let finished =
    match runner with
    | None -> Engine.last_event_at (Topology.engine topo)
    | Some r -> Shard.last_event_at r
  in
  (transcript topo logs, events, finished, runner)

let test_star_differential () =
  let until = Units.Time.seconds 1. in
  let lognow = Engine.now in
  let seq, ev_seq, fin_seq, r0 =
    run_star ~until ~islands:3 ~packets:40 ~lognow 1
  in
  Alcotest.(check bool) "shards=1 falls back to sequential" true (r0 = None);
  List.iter
    (fun shards ->
      let par, ev_par, fin_par, runner =
        run_star ~until ~islands:3 ~packets:40 ~lognow shards
      in
      let label = Printf.sprintf "shards=%d" shards in
      Alcotest.(check string) (label ^ " transcript identical") seq par;
      Alcotest.(check int) (label ^ " event count identical") ev_seq ev_par;
      Alcotest.(check bool)
        (label ^ " last event time identical")
        true
        (Units.Time.equal fin_seq fin_par);
      match runner with
      | None -> Alcotest.fail (label ^ " unexpectedly sequential")
      | Some r ->
          (* 3 islands + hub = 4 components; shards beyond that fold. *)
          Alcotest.(check int)
            (label ^ " shard count")
            (Stdlib.min shards 4) (Shard.nshards r))
    [ 2; 3; 4 ]

let test_star_faults_differential () =
  (* Impairment on and the fault plan flapping the cut links
     mid-window: runs at 1..4 shards must match the sequential run
     exactly, link stat for link stat (the transcript includes per-link
     loss, fault and queue accounting). *)
  let until = Units.Time.seconds 1. in
  let lognow = Engine.now in
  let seq, ev_seq, fin_seq, _ =
    run_star ~until ~impair:true ~faults:true ~islands:3 ~packets:40 ~lognow 1
  in
  List.iter
    (fun shards ->
      let par, ev_par, fin_par, _ =
        run_star ~until ~impair:true ~faults:true ~islands:3 ~packets:40
          ~lognow shards
      in
      let label = Printf.sprintf "shards=%d" shards in
      Alcotest.(check string)
        (label ^ " transcript identical to sequential")
        seq par;
      Alcotest.(check int) (label ^ " event count identical") ev_seq ev_par;
      Alcotest.(check bool)
        (label ^ " last event time identical")
        true
        (Units.Time.equal fin_seq fin_par))
    [ 1; 2; 3; 4 ]

let test_star_quiescence () =
  (* No [until]: the runner must detect global quiescence through the
     barrier, and [last_event_at] must agree with sequential. *)
  let lognow e = ignore e; Units.Time.zero in
  let seq, ev_seq, fin_seq, _ = run_star ~islands:2 ~packets:10 ~lognow 1 in
  let par, ev_par, fin_par, _ = run_star ~islands:2 ~packets:10 ~lognow 3 in
  Alcotest.(check string) "transcript identical" seq par;
  Alcotest.(check int) "event count identical" ev_seq ev_par;
  Alcotest.(check bool) "last event time identical" true
    (Units.Time.equal fin_seq fin_par)

(* Frames that cross a shard mailbox must not be recycled through the
   sending shard's pool: each shard's ring owns a pool, the mailbox
   carries a detached floating record, receivers retire into their own
   shard's ring, and a crossed frame's bytes must still be intact when
   delivered.  (Regression for the release-at-boundary hazard: a
   sender-side release would retire the frame while it sits in the
   mailbox.) *)
let test_pool_boundary_crossing () =
  let build topo =
    let a = Topology.add_node topo ~name:"a" in
    let b = Topology.add_node topo ~name:"b" in
    let ab, _ =
      Topology.duplex topo ~a ~b ~rate:(Units.Rate.gbps 1.)
        ~propagation:(Units.Time.ms 5.) ()
    in
    let delivered = ref 0 in
    let intact = ref true in
    let ring_b = Topology.node_ring topo b in
    Node.set_handler b (fun p ->
        let frame = Packet.frame p in
        if Bytes.length frame <> 256 then intact := false
        else if Bytes.get frame 17 <> 'x' then intact := false;
        incr delivered;
        (* Receiver done with the packet: retire into *its* ring. *)
        Ring.in_packet_done ring_b p);
    let engine = Topology.node_engine topo a in
    let ids = Topology.id_source topo a in
    let ring_a = Topology.node_ring topo a in
    for k = 0 to 99 do
      ignore
        (Engine.schedule engine
           ~at:(Units.Time.us (float_of_int (k * 10)))
           (fun () ->
             let p =
               Ring.in_packet ring_a ~id:(ids ()) ~born:(Engine.now engine) 256
             in
             Bytes.fill (Packet.frame p) 0 256 'x';
             Link.send ab p))
    done;
    (delivered, intact)
  in
  let topo, (delivered, intact), runner = Shard.build ~shards:2 build in
  let r = Option.get runner in
  Shard.run r;
  Alcotest.(check int) "all packets delivered" 100 !delivered;
  Alcotest.(check bool) "frames intact after crossing" true !intact;
  let stats shard =
    Pool.stats (Ring.pool (Option.get (Topology.ring_of_shard topo shard)))
  in
  let a = stats 0 and b = stats 1 in
  Alcotest.(check int) "sender pool acquired all frames" 100 a.Pool.acquired;
  Alcotest.(check int) "sender pool got no releases" 0 a.Pool.released;
  Alcotest.(check int) "receiver pool got all releases" 100 b.Pool.released;
  let ring shard = Ring.stats (Option.get (Topology.ring_of_shard topo shard)) in
  Alcotest.(check int) "sender slots all detached" 100 (ring 0).Ring.detached;
  Alcotest.(check int) "no slot left in use" 0
    ((ring 0).Ring.in_use + (ring 1).Ring.in_use)

(* Random island topologies with random fault toggles: the strongest
   form of the determinism contract.  Fault plans flip link state at
   scheduled times on the owning shard's engine — the same mechanism
   the chaos experiments use — so loss accounting must also match. *)
let test_fuzz_differential =
  QCheck.Test.make ~count:20
    ~name:"random star: sequential = sharded"
    QCheck.(
      quad (int_range 2 4) (int_range 1 30) (int_range 2 4) (pair bool bool))
    (fun (islands, packets, shards, (impair, faults)) ->
      let until = Units.Time.ms 500. in
      let lognow = Engine.now in
      let seq, ev_seq, _, _ =
        run_star ~until ~impair ~faults ~islands ~packets ~lognow 1
      in
      let par, ev_par, _, _ =
        run_star ~until ~impair ~faults ~islands ~packets ~lognow shards
      in
      seq = par && ev_seq = ev_par)

let suite =
  [
    Alcotest.test_case "star: sequential vs shards 2..4" `Quick
      test_star_differential;
    Alcotest.test_case "star: shards 1..4 = sequential under faults" `Quick
      test_star_faults_differential;
    Alcotest.test_case "star: quiescence without horizon" `Quick
      test_star_quiescence;
    Alcotest.test_case "pool: frames crossing shards stay intact" `Quick
      test_pool_boundary_crossing;
    QCheck_alcotest.to_alcotest test_fuzz_differential;
  ]

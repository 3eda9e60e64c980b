open Mmt_util

(* Conservative topology-partitioned parallel execution.

   The topology is cut at boundary links (propagation >= 1 ms, see
   {!Link.cut_threshold}); each resulting component group runs its own
   SoA event heap on its own domain, and domains advance in lockstep
   time windows of width w = the minimum propagation delay over
   cross-shard links.  A window [T, T+w) is safe to run without
   hearing from other shards: any packet another shard finishes
   transmitting during the window arrives no earlier than T + w.
   Packets crossing a cut edge travel through that edge's SPSC
   mailbox, carrying the arrival time and boundary-lane key the
   sequential engine would have used — so when the receiving shard
   re-schedules them, same-instant ordering (and therefore the whole
   execution) is byte-identical to a sequential run.

   Synchronization is a sense-reversing barrier (one mutex, one
   condition variable): two crossings per window, one after runs and
   one after mailbox drains, with the last arriver of the second
   crossing computing the next window cap while it still holds the
   mutex.  The mutex acquire/release pairs provide every
   happens-before edge the mailbox phase discipline needs, and a
   barrier crossing allocates nothing — the per-window cost is two
   lock round-trips per domain. *)

(* Fills vacated mailbox cells; never delivered. *)
let dummy_packet = Packet.create ~id:(-1) ~born:Units.Time.zero Pool.retired

type barrier = {
  mutex : Mutex.t;
  cond : Condition.t;
  parties : int;
  mutable arrived : int;
  mutable sense : bool;
}

let barrier_create parties =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    parties;
    arrived = 0;
    sense = false;
  }

(* The last arriver runs [serial] under the mutex before releasing the
   others — the leader section that computes the next window. *)
let barrier_wait b serial =
  Mutex.lock b.mutex;
  let s = b.sense in
  b.arrived <- b.arrived + 1;
  if b.arrived = b.parties then begin
    serial ();
    b.arrived <- 0;
    b.sense <- not s;
    Condition.broadcast b.cond
  end
  else
    while b.sense = s do
      Condition.wait b.cond b.mutex
    done;
  Mutex.unlock b.mutex

let no_serial () = ()

(* One cross-shard cut edge, as seen by its receiving shard: the
   mailbox its source shard pushes into, and a preallocated injector
   that re-schedules a drained message on the receiving engine under
   the (at, key) it crossed with. *)
type route = {
  mailbox : Packet.t Mailbox.t;
  inject : at:int -> key:int -> Packet.t -> unit;
}

type t = {
  engines : Engine.t array;
  incoming : route array array; (* per receiving shard *)
  window_ns : int; (* max_int when no link crosses shards *)
  barrier : barrier;
  mutable cap_ns : int; (* current window cap, written by the leader *)
  mutable until_ns : int;
  mutable finished : bool;
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
}

let nshards t = Array.length t.engines

let events t =
  Array.fold_left (fun acc e -> acc + Engine.processed e) 0 t.engines

let last_event_at t =
  Array.fold_left
    (fun acc e -> Units.Time.max acc (Engine.last_event_at e))
    Units.Time.zero t.engines

(* Union-find over nodes joined by non-boundary edges: the groups that
   must share an engine.  Components are numbered in node-creation
   order of their first member, so the numbering is deterministic. *)
let component_map topo =
  let nodes = Array.of_list (Topology.nodes topo) in
  let n = Array.length nodes in
  let index = Hashtbl.create n in
  Array.iteri (fun i node -> Hashtbl.replace index (Node.name node) i) nodes;
  let parent = Array.init n Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let root = find parent.(i) in
      parent.(i) <- root;
      root
    end
  in
  List.iter
    (fun (src, dst, link) ->
      if not (Link.is_boundary link) then begin
        let a = find (Hashtbl.find index (Node.name src))
        and b = find (Hashtbl.find index (Node.name dst)) in
        if a <> b then parent.(Stdlib.max a b) <- Stdlib.min a b
      end)
    (Topology.edges topo);
  let comp_of_root = Hashtbl.create 8 in
  let ncomp = ref 0 in
  let comp_by_name = Hashtbl.create n in
  Array.iter
    (fun node ->
      let root = find (Hashtbl.find index (Node.name node)) in
      let comp =
        match Hashtbl.find_opt comp_of_root root with
        | Some c -> c
        | None ->
            let c = !ncomp in
            incr ncomp;
            Hashtbl.replace comp_of_root root c;
            c
      in
      Hashtbl.replace comp_by_name (Node.name node) comp)
    nodes;
  (comp_by_name, !ncomp)

let components topo = snd (component_map topo)

let wire topo engines =
  let nshards = Array.length engines in
  let incoming = Array.make nshards [] in
  let window = ref max_int in
  List.iter
    (fun (src, dst, link) ->
      if Link.is_boundary link then begin
        let ssrc = Topology.shard_of_node topo src
        and sdst = Topology.shard_of_node topo dst in
        if ssrc <> sdst then begin
          window :=
            Stdlib.min !window (Units.Time.to_ns (Link.propagation link));
          let mailbox = Mailbox.create ~dummy:dummy_packet in
          (* Ring slots never cross domains: detach frees the source
             shard's slot and sends a floating record through the
             mailbox; the receiving shard retires it into its own
             ring's pool (receiving-shard frame ownership). *)
          let src_ring = Topology.node_ring topo src in
          Link.set_boundary_exit link
            (Some
               (fun ~at ~key packet ->
                 Mailbox.push mailbox ~at:(Units.Time.to_ns at) ~key
                   (Ring.detach src_ring packet)));
          let engine = engines.(sdst) in
          let inject ~at ~key packet =
            ignore
              (Engine.schedule_boundary engine ~at:(Units.Time.of_int_ns at)
                 ~key (fun () -> Link.deliver_now link packet))
          in
          incoming.(sdst) <- { mailbox; inject } :: incoming.(sdst)
        end
      end)
    (Topology.edges topo);
  let incoming = Array.map (fun l -> Array.of_list (List.rev l)) incoming in
  {
    engines;
    incoming;
    window_ns = !window;
    barrier = barrier_create nshards;
    cap_ns = 0;
    until_ns = max_int;
    finished = false;
    failed = None;
  }

let build ~shards ?pooling:_ ?fusing:_ build_fn =
  (* Two-pass construction: build once on a throwaway engine to learn
     the graph, partition it, then rebuild for real on per-shard
     engines.  Sharing [build_fn] between the passes (and between the
     sequential fallback and the sharded path) structurally guarantees
     both modes construct the identical topology — same nodes, links,
     and cut-edge ids in the same order. *)
  let sequential () =
    let topo = Topology.create ~engine:(Engine.create ()) () in
    let result = build_fn topo in
    (topo, result, None)
  in
  if shards < 2 then sequential ()
  else begin
    (* The probe topology is thrown away unrun. *)
    let probe = Topology.create ~engine:(Engine.create ()) () in
    ignore (build_fn probe);
    let comp_by_name, ncomp = component_map probe in
    if ncomp < 2 then sequential ()
    else begin
      let nshards = Stdlib.min shards ncomp in
      let assign name = Hashtbl.find comp_by_name name mod nshards in
      let engines = Array.init nshards (fun _ -> Engine.create ()) in
      let topo = Topology.create_sharded ~engines ~assign () in
      let result = build_fn topo in
      (topo, result, Some (wire topo engines))
    end
  end

(* Minimum next-event time over all engines.  Top-level and
   tail-recursive on an int accumulator: the leader calls this on every
   window and a barrier crossing must not allocate (a local [rec]
   closure or a ref cell would). *)
let rec min_next_ns engines i acc =
  if i >= Array.length engines then acc
  else
    min_next_ns engines (i + 1)
      (Stdlib.min acc (Engine.next_event_ns engines.(i)))

let fail t shard exn bt =
  Mutex.lock t.barrier.mutex;
  if t.failed = None then t.failed <- Some (shard, exn, bt);
  Mutex.unlock t.barrier.mutex

let run ?until t =
  t.until_ns <-
    (match until with None -> max_int | Some u -> Units.Time.to_ns u);
  t.finished <- false;
  t.failed <- None;
  (* Leader section, run by the last domain into the post-drain
     barrier: every mailbox is empty (drained into its engine), so the
     global minimum next-event time over the heaps is exact.  The next
     window cap is T_min + w - 1: an event at time tau <= cap can only
     be affected by a cross-shard packet arriving at tau' >= T_min + w
     > cap, so the window runs without further coordination. *)
  let compute () =
    if t.failed <> None then t.finished <- true
    else begin
      let tmin_ns = min_next_ns t.engines 0 max_int in
      if tmin_ns = max_int || tmin_ns > t.until_ns then t.finished <- true
      else begin
        let cap =
          if t.window_ns = max_int then max_int else tmin_ns + t.window_ns - 1
        in
        t.cap_ns <- Stdlib.min cap t.until_ns
      end
    end
  in
  let worker shard =
    let engine = t.engines.(shard) in
    let routes = t.incoming.(shard) in
    let dead = ref false in
    let continue = ref true in
    while !continue do
      (* Crossing 1: every producer has parked, so draining is safe. *)
      barrier_wait t.barrier no_serial;
      Array.iter (fun r -> Mailbox.drain r.mailbox r.inject) routes;
      (* Crossing 2: every drain has landed; the leader computes. *)
      barrier_wait t.barrier compute;
      if t.finished then continue := false
      else if not !dead then begin
        try Engine.run_until engine ~until:(Units.Time.of_int_ns t.cap_ns)
        with exn ->
          let bt = Printexc.get_raw_backtrace () in
          fail t shard exn bt;
          (* Keep crossing barriers so the others are not stranded;
             the leader declares the run finished at the next window. *)
          dead := true
      end
    done;
    (* Match the sequential clock-clamp semantics of [run ~until]: the
       loop may have quiesced before the caller's horizon. *)
    if t.until_ns <> max_int && not !dead then
      Engine.run ~until:(Units.Time.of_int_ns t.until_ns) engine
  in
  let crew =
    Array.init
      (Array.length t.engines - 1)
      (fun i -> Domain.spawn (fun () -> worker (i + 1)))
  in
  worker 0;
  Array.iter Domain.join crew;
  match t.failed with
  | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ()

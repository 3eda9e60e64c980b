open Mmt_util

type t = {
  engines : Engine.t array;
  assign : (string -> int) option; (* node name -> shard; None = all on 0 *)
  trace : Trace.t option;
  rings : Ring.t array; (* per shard, same length as [engines] *)
  next_ids : int array; (* per-shard packet-id counters *)
  node_by_name : (string, Node.t) Hashtbl.t;
  shard_by_name : (string, int) Hashtbl.t;
  mutable node_order : Node.t list; (* reversed *)
  mutable link_order : Link.t list; (* reversed *)
  mutable edge_order : (Node.t * Node.t * Link.t) list; (* reversed *)
  mutable next_boundary : int;
}

(* Every shard owns a packet ring: its slots and its embedded frame
   pool are touched only by the domain running that shard. *)
let make ~engines ~assign ~trace =
  {
    engines;
    assign;
    trace;
    rings = Array.map (fun _ -> Ring.create ()) engines;
    next_ids = Array.make (Array.length engines) 0;
    node_by_name = Hashtbl.create 16;
    shard_by_name = Hashtbl.create 16;
    node_order = [];
    link_order = [];
    edge_order = [];
    next_boundary = 0;
  }

let create ~engine ?trace () = make ~engines:[| engine |] ~assign:None ~trace

let create_sharded ~engines ~assign () =
  if Array.length engines = 0 then
    invalid_arg "Topology.create_sharded: no engines";
  make ~engines ~assign:(Some assign) ~trace:None

let engine t = t.engines.(0)
let nshards t = Array.length t.engines
let trace t = t.trace
let ring t = t.rings.(0)
let ring_of_shard t shard = Some t.rings.(shard)

let shard_of_node t node =
  match t.assign with
  | None -> 0
  | Some _ -> Hashtbl.find t.shard_by_name (Node.name node)

let node_engine t node = t.engines.(shard_of_node t node)
let node_ring t node = t.rings.(shard_of_node t node)

(* Packet ids are unique across shards by construction — shard [s]
   draws from the residue class [s mod nshards] — and each counter is
   touched only by the domain running that shard.  The values differ
   between a 1-shard and an N-shard run of the same scenario, which is
   fine because ids are pure identity: nothing in the protocol stack
   or the reports orders on them. *)
let fresh_id_for t shard =
  let n = t.next_ids.(shard) in
  t.next_ids.(shard) <- n + 1;
  (n * Array.length t.engines) + shard

let fresh_packet_id t = fresh_id_for t 0

let id_source t node =
  let shard = shard_of_node t node in
  fun () -> fresh_id_for t shard

let add_node t ~name =
  if Hashtbl.mem t.node_by_name name then
    invalid_arg ("Topology.add_node: duplicate node " ^ name);
  let node = Node.create ~name in
  Hashtbl.replace t.node_by_name name node;
  (match t.assign with
  | None -> ()
  | Some assign ->
      let shard = assign name in
      if shard < 0 || shard >= Array.length t.engines then
        invalid_arg ("Topology.add_node: shard out of range for " ^ name);
      Hashtbl.replace t.shard_by_name name shard);
  t.node_order <- node :: t.node_order;
  node

let find_node t name =
  match Hashtbl.find_opt t.node_by_name name with
  | Some node -> node
  | None -> raise Not_found

let connect t ~src ~dst ~rate ~propagation ?loss ?queue () =
  let name = Node.name src ^ "->" ^ Node.name dst in
  let shard = shard_of_node t src in
  let engine = t.engines.(shard) in
  (* Boundary ids are assigned in creation order to every link at or
     above the cut threshold, in every mode — identical construction
     order therefore yields identical delivery keys, sharded or not. *)
  let boundary =
    if Units.Time.(propagation >= Link.cut_threshold) then begin
      let id = t.next_boundary in
      t.next_boundary <- id + 1;
      id
    end
    else begin
      if shard_of_node t dst <> shard then
        invalid_arg
          ("Topology.connect: " ^ name
         ^ " crosses shards below the cut threshold");
      -1
    end
  in
  let observer =
    Option.map (fun trace -> Trace.observer trace ~engine ~link:name) t.trace
  in
  let link =
    Link.create ~engine ~name ~rate ~propagation ?loss ?queue
      ~ring:t.rings.(shard) ?observer ~boundary
      ~deliver:(Node.handle dst) ()
  in
  t.link_order <- link :: t.link_order;
  t.edge_order <- (src, dst, link) :: t.edge_order;
  link

let duplex t ~a ~b ~rate ~propagation ?loss_ab ?loss_ba ?queue_ab ?queue_ba () =
  let ab = connect t ~src:a ~dst:b ~rate ~propagation ?loss:loss_ab ?queue:queue_ab () in
  let ba = connect t ~src:b ~dst:a ~rate ~propagation ?loss:loss_ba ?queue:queue_ba () in
  (ab, ba)

let links t = List.rev t.link_order
let nodes t = List.rev t.node_order
let edges t = List.rev t.edge_order

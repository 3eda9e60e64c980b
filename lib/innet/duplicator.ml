open Mmt_frame

type stats = { duplicated : int; copies_sent : int; passed : int }

type t = {
  env : Mmt_runtime.Env.t;
  mutable consumers : Addr.Ip.t list;
  mutable duplicated : int;
  mutable copies_sent : int;
  mutable passed : int;
  element : Element.t Lazy.t;
}

let program =
  {
    Op.name = "duplicator";
    ops =
      [
        Op.Extract "config_data";
        Op.Compare "kind";
        Op.Clone "multicast-group";
        Op.Set_flag "features.duplicated";
      ];
  }

(* The Duplicated bit lives in the configuration data: setting it on a
   clone's header view leaves the size alone and reseals the checksum. *)
let mark_duplicated frame =
  match Mmt.Encap.locate frame with
  | Error _ -> ()
  | Ok (_encap, off) -> (
      match Mmt.Header.View.of_frame ~off frame with
      | Ok view when not (Mmt.Header.View.has view Mmt.Feature.Duplicated) ->
          Mmt.Header.View.set_duplicated view
      | Ok _ | Error _ -> ())

let process t ~now:_ packet =
  let frame = Mmt_sim.Packet.frame packet in
  let is_data =
    match Mmt.Encap.locate frame with
    | Error _ -> false
    | Ok (_encap, mmt_offset) -> (
        match Mmt.Header.View.of_frame ~off:mmt_offset frame with
        | Error _ -> false
        | Ok view -> Mmt.Header.View.kind view = Mmt.Feature.Kind.Data)
  in
  if (not is_data) || t.consumers = [] then begin
    t.passed <- t.passed + 1;
    Element.Forward packet
  end
  else begin
    t.duplicated <- t.duplicated + 1;
    List.iter
      (fun consumer ->
        (* A ring clone: record and frame both recycle, and padding,
           corruption and hop count travel with the copy. *)
        let copy =
          Mmt_sim.Ring.clone t.env.Mmt_runtime.Env.ring packet
            ~id:(t.env.Mmt_runtime.Env.fresh_id ())
        in
        mark_duplicated (Mmt_sim.Packet.frame copy);
        t.copies_sent <- t.copies_sent + 1;
        t.env.Mmt_runtime.Env.send consumer copy)
      t.consumers;
    Element.Forward packet
  end

let create ~env ~consumers () =
  let rec t =
    {
      env;
      consumers;
      duplicated = 0;
      copies_sent = 0;
      passed = 0;
      element =
        lazy
          {
            Element.name = "duplicator";
            program;
            process = (fun ~now packet -> process t ~now packet);
          };
    }
  in
  t

let element t = Lazy.force t.element
let stats t = { duplicated = t.duplicated; copies_sent = t.copies_sent; passed = t.passed }
let subscribe t consumer = t.consumers <- consumer :: t.consumers
let consumers t = t.consumers

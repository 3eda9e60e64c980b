(* Host-side tracing for the benchmark.

   Spans are recorded by the benchmark around the calls it makes into
   each layer (never inside the libraries), kept in memory, and written
   out once at the end.  GC phases come from the runtime's own event
   ring (Runtime_events), read by this process, and are attributed to
   the innermost span they started in, so a layer's self time excludes
   the collections that interrupted it. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  run_id : string;  (** shared by every span of one workload repetition *)
  name : string;
  layer : string;
  start_ns : int;
  mutable stop_ns : int;
}

let enabled = ref false
let current_run = ref ""
let recorded : span list ref = ref []
let open_stack : span list ref = ref []
let next_id = ref 0

let set_run run_id = current_run := run_id

let with_span ~layer name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_stack with s :: _ -> s.id | [] -> -1 in
    let s =
      {
        id = !next_id;
        parent;
        run_id = !current_run;
        name;
        layer;
        start_ns = now_ns ();
        stop_ns = -1;
      }
    in
    incr next_id;
    open_stack := s :: !open_stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- now_ns ();
        open_stack := List.tl !open_stack;
        recorded := s :: !recorded)
      f
  end

let spans () = List.rev !recorded
let duration s = s.stop_ns - s.start_ns

(* Growable int buffer, for per-step durations: pushing allocates
   nothing until the buffer doubles. *)
module Ints = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 4096 0; len = 0 }
  let clear t = t.len <- 0

  let push t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    Array.unsafe_set t.data t.len v;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* ---- GC phases from Runtime_events ------------------------------------ *)

type gc_kind = Minor | Major

type gc_interval = { kind : gc_kind; g_start : int; g_stop : int }

let gc_recorded : gc_interval list ref = ref []
let gc_lost = ref 0
let cursor = ref None

(* Only top-level collector phases are kept: a minor collection
   (EV_MINOR) or a major slice / explicit collection.  Nested sub-phases
   would double-count.  One depth counter per ring (= per domain). *)
let max_rings = 128
let depth = Array.make max_rings 0
let opened_at = Array.make max_rings 0
let opened_kind = Array.make max_rings Minor

let classify (phase : Runtime_events.runtime_phase) =
  match phase with
  | EV_MINOR -> Some Minor
  | EV_MAJOR_SLICE | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_FULL_MAJOR
  | EV_EXPLICIT_GC_MAJOR_SLICE | EV_EXPLICIT_GC_COMPACT ->
      Some Major
  | _ -> None

let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)

let callbacks =
  let runtime_begin ring t phase =
    match classify phase with
    | Some kind when ring < max_rings ->
        if depth.(ring) = 0 then begin
          opened_at.(ring) <- ts t;
          opened_kind.(ring) <- kind
        end;
        depth.(ring) <- depth.(ring) + 1
    | _ -> ()
  in
  let runtime_end ring t phase =
    match classify phase with
    | Some _ when ring < max_rings && depth.(ring) > 0 ->
        depth.(ring) <- depth.(ring) - 1;
        if depth.(ring) = 0 then
          gc_recorded :=
            { kind = opened_kind.(ring); g_start = opened_at.(ring); g_stop = ts t }
            :: !gc_recorded
    | _ -> ()
  in
  let lost_events _ring n = gc_lost := !gc_lost + n in
  Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()

let start_gc_events () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None)

let poll_gc () =
  match !cursor with
  | None -> ()
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)

let gc_intervals () = List.rev !gc_recorded

(* ---- Self time ---------------------------------------------------------- *)

(* Each GC interval belongs to the innermost span whose extent contains
   its start.  A span's self time is its duration minus its child spans
   and the GC intervals attributed to it; GC intervals count as the
   [gc] layer's self time. *)
let self_times spans gcs =
  let inner = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0 (Hashtbl.find_opt inner s.parent) in
        Hashtbl.replace inner s.parent (prev + duration s))
    spans;
  let gc_total = ref 0 in
  List.iter
    (fun g ->
      let owner =
        List.fold_left
          (fun best s ->
            if g.g_start >= s.start_ns && g.g_start < s.stop_ns then
              match best with
              | Some b when duration b <= duration s -> best
              | _ -> Some s
            else best)
          None spans
      in
      match owner with
      | Some s ->
          let len = min g.g_stop s.stop_ns - g.g_start in
          gc_total := !gc_total + len;
          let prev = Option.value ~default:0 (Hashtbl.find_opt inner s.id) in
          Hashtbl.replace inner s.id (prev + len)
      | None -> ())
    gcs;
  let per_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered = Option.value ~default:0 (Hashtbl.find_opt inner s.id) in
      let self = max 0 (duration s - covered) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt per_layer s.layer) in
      Hashtbl.replace per_layer s.layer (prev + self))
    spans;
  Hashtbl.replace per_layer "gc" !gc_total;
  per_layer

(* ---- Output --------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let span_json s =
  Printf.sprintf
    "{\"id\": %d, \"parent\": %d, \"run\": %s, \"name\": %s, \"layer\": %s, \
     \"start_ns\": %d, \"end_ns\": %d}"
    s.id s.parent (json_string s.run_id) (json_string s.name)
    (json_string s.layer) s.start_ns s.stop_ns

let gc_json g =
  Printf.sprintf "{\"kind\": %s, \"start_ns\": %d, \"end_ns\": %d}"
    (json_string (match g.kind with Minor -> "minor" | Major -> "major"))
    g.g_start g.g_stop

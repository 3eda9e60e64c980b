(* Benchmark harness: runs one workload for a fixed host-time budget and
   prints every metric by name and unit, then one JSON result line.

     main.exe --workload W --seed N --seconds S --trace 0|1 \
              --reference FILE --out DIR
     main.exe --record --reference FILE

   [--trace 0] measures the end-to-end metrics with tracing off.
   [--trace 1] is the separate traced run: exact per-layer counts from
   an untraced repetition, span and per-event timings from traced ones,
   and the tracing overhead between the two.  Every repetition's
   simulated output is digested and checked; any mismatch makes the
   result incorrect and the exit code non-zero. *)

open Workloads

let median_float a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median_int a = median_float (Array.map float_of_int a)

(* Nearest-rank percentile of sorted [a]. *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* The highest percentile of the ladder with at least ten samples beyond
   it.  When not even p75 qualifies, no tail can be told from noise and
   the median stands in for it. *)
let tail sorted =
  let n = float_of_int (Array.length sorted) in
  let ten_beyond p = n *. (1. -. (p /. 100.)) >= 10. in
  match List.find_opt ten_beyond [ 99.9; 99.; 95.; 90.; 75. ] with
  | Some p -> (p, float_of_int (percentile sorted p))
  | None -> (50., median_int sorted)

(* ---- Environment stamp ----------------------------------------------------- *)

let env_stamp () =
  let g = Gc.get () in
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("gc_minor_heap_words", string_of_int g.Gc.minor_heap_size);
    ("gc_space_overhead", string_of_int g.space_overhead);
    ("OCAMLRUNPARAM", Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"));
    ("commit", Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT"));
  ]

let env_json () =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) -> Spans.json_string k ^ ": " ^ Spans.json_string v)
         (env_stamp ()))
  ^ "}"

(* ---- Reference digests ------------------------------------------------------ *)

(* Lines of [workload seed digest]; '#' starts a comment. *)
let load_reference path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ name; seed; digest ] when name <> "" && name.[0] <> '#' ->
               Some ((name, Int64.of_string seed), digest)
           | _ -> None)

let record path =
  let lines =
    List.concat_map
      (fun w ->
        if w.reference_of <> w.name then []
        else
          List.map
            (fun seed ->
              Printf.sprintf "%s 0x%LX %s" w.name seed (w.reference ~seed))
            [ w.default_seed; w.held_out_seed ])
      Workloads.all
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "# workload seed digest -- simulated-output digests from the \
         libraries' own entry points\n\
         # (Scenario.run, Pilot.run + Pilot.results, Campaign.run + \
         render).  Re-record with\n\
         # `python3 perfbench/run.py --record` only when a change means to \
         alter simulated output.\n";
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  List.iter print_endline lines

(* ---- Checks ----------------------------------------------------------------- *)

let problems = ref []

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        problems := msg :: !problems;
        Printf.printf "CHECK FAILED: %s\n%!" msg
      end)
    fmt

(* ---- Repetitions ------------------------------------------------------------ *)

type measured = { r : rep; gc0 : Gc.stat; gc1 : Gc.stat }

let measure (w : workload) ~trace ~seed =
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let r = w.rep ~trace ~seed in
  let gc1 = Gc.quick_stat () in
  { r; gc0; gc1 }

(* Repeat until [seconds] of host time have passed and at least
   [min_reps] repetitions have run. *)
let repeat ~seconds ~min_reps f =
  let deadline = Spans.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc n =
    if n >= min_reps && Spans.now_ns () >= deadline then List.rev acc
    else go (f n :: acc) (n + 1)
  in
  Array.of_list (go [] 0)

let wall r = r.setup_ns + r.sim_ns + r.readback_ns
let s_of_ns ns = float_of_int ns /. 1e9

type metric = { key : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { key = name; value; unit_; note }

let print_metrics ms =
  List.iter
    (fun m ->
      Printf.printf "  %-28s %16.6g %-6s%s\n" m.key m.value m.unit_
        (if m.note = "" then "" else "  " ^ m.note))
    ms

let result_line ~attempted ~failed ms =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
             (Spans.json_string m.key)
             (Printf.sprintf "%.17g" m.value)
             (Spans.json_string m.unit_))
         ms)
  in
  Printf.printf
    "RESULT {\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!problems = []) attempted failed body

(* ---- Digest checks shared by both modes ------------------------------------- *)

(* The digest every repetition must reproduce: the recorded one when
   this seed has one, else the library entry point's. *)
let reference_checks (w : workload) ~seed ~reference =
  let lib = w.reference ~seed in
  Printf.printf "reference %s seed 0x%LX (library entry point): %s\n%!" w.reference_of
    seed lib;
  match List.assoc_opt (w.reference_of, seed) reference with
  | Some d ->
      check (d = lib) "library digest at seed 0x%LX differs from the recorded %s" seed d;
      d
  | None -> lib

let held_out_check (w : workload) ~reference =
  let seed = w.held_out_seed in
  let r = w.rep ~trace:false ~seed in
  match List.assoc_opt (w.reference_of, seed) reference with
  | Some d ->
      Printf.printf "held-out seed 0x%LX: %s (recorded %s)\n%!" seed r.digest d;
      check (r.digest = d) "held-out seed 0x%LX digest %s, recorded %s" seed r.digest d
  | None -> check false "no recorded digest for %s at held-out seed 0x%LX" w.reference_of seed

let check_reps (w : workload) ~lib reps =
  Array.iteri
    (fun n (m : measured) ->
      check (m.r.digest = lib) "%s rep %d digest %s differs from the reference %s" w.name n
        m.r.digest lib;
      check (m.r.counts = reps.(0).r.counts) "%s rep %d per-layer counts differ from rep 0"
        w.name n)
    reps

(* Digest mismatches fail every operation of the repetition. *)
let tally ~lib reps =
  Array.fold_left
    (fun (a, f) m ->
      (a + m.r.attempted, f + if m.r.digest = lib then m.r.failed else m.r.attempted))
    (0, 0) reps

(* ---- End-to-end run (--trace 0) --------------------------------------------- *)

(* Set-up time per set-up, sampled on its own for [seconds] (at least one
   sample).  A sample starts from a full collection and times
   back-to-back set-ups until 10 ms have passed, so a set-up far shorter
   than the clock's and the scheduler's noise (chaos-pilot's plan
   generation takes ~0.2 ms) is timed in bulk, while one of 10 ms or more
   is timed alone. *)
let setup_samples (w : workload) ~seed ~seconds =
  repeat ~seconds ~min_reps:1 (fun _ ->
      Gc.full_major ();
      let t0 = Spans.now_ns () in
      let n = ref 0 in
      while !n = 0 || Spans.now_ns () - t0 < 10_000_000 do
        w.setup ~seed;
        incr n
      done;
      float_of_int (Spans.now_ns () - t0) /. float_of_int !n)

let end_to_end (w : workload) ~seed ~seconds ~reference =
  let lib = reference_checks w ~seed ~reference in
  let min_reps = if w.frames then 3 else 2 in
  (* Set-ups are sampled after every repetition, for a twentieth of its
     time, so that like the repetitions they are spread over the whole
     run: on a shared host the speed drifts between plateaus, and a few
     seconds of set-ups taken at once would see only one of them. *)
  let setups = ref [] in
  let reps =
    repeat ~seconds ~min_reps (fun _ ->
        let m = measure w ~trace:false ~seed in
        setups := setup_samples w ~seed ~seconds:(s_of_ns (wall m.r) *. 0.05) :: !setups;
        m)
  in
  let setups = Array.concat !setups in
  check_reps w ~lib reps;
  held_out_check w ~reference;
  let rs = Array.map (fun m -> m.r) reps in
  (* Every repetition runs the same trials (same seeds, same plans), so a
     trial's host time is its median over the repetitions: a burst of
     interference from outside the process hits one repetition of a
     trial, not its median. *)
  let trials =
    Array.init (Array.length rs.(0).trial_ns) (fun t ->
        int_of_float (median_int (Array.map (fun r -> r.trial_ns.(t)) rs)))
  in
  Array.sort compare trials;
  let p, tail_ns = tail trials in
  let attempted, failed = tally ~lib reps in
  let unit_ = if w.frames then "frames" else "trials" in
  let ms =
    [
      metric "wall_s" "s" (median_int (Array.map wall rs) /. 1e9)
        ~note:(Printf.sprintf "median of %d repetitions" (Array.length rs));
      metric "setup_s" "s" (median_float setups /. 1e9)
        ~note:
          (let sorted = Array.copy setups in
           Array.sort compare sorted;
           Printf.sprintf "median of %d samples, min %.6f, max %.6f" (Array.length sorted)
             (sorted.(0) /. 1e9) (sorted.(Array.length sorted - 1) /. 1e9));
      metric "ops_per_s" "1/s"
        (median_float
           (Array.map (fun r -> float_of_int r.ops /. s_of_ns r.sim_ns) rs))
        ~note:(Printf.sprintf "%s per simulate second, %d per repetition" unit_ rs.(0).ops);
      metric "trial_ms_p50" "ms" (median_int trials /. 1e6)
        ~note:
          (if w.frames then
             Printf.sprintf "the simulation's median over %d repetitions" (Array.length rs)
           else
             Printf.sprintf "%d campaign trials, each its median over %d repetitions"
               (Array.length trials) (Array.length rs));
      metric "trial_ms_tail" "ms" (tail_ns /. 1e6)
        ~note:
          (Printf.sprintf "p%g of %d%s" p (Array.length trials)
             (if p = 50. then ": no higher percentile has ten samples beyond it" else ""));
    ]
  in
  Printf.printf "end-to-end, %s seed 0x%LX:\n" w.name seed;
  Printf.printf "  repetition walls (s):%s\n"
    (String.concat ""
       (Array.to_list (Array.map (fun r -> Printf.sprintf " %.3f" (s_of_ns (wall r))) rs)));
  print_metrics ms;
  Printf.printf "  %-28s %16.6g %-6s  %d of %d %s\n" "failed_ratio"
    (if attempted = 0 then 0. else float_of_int failed /. float_of_int attempted)
    "ratio" failed attempted unit_;
  if w.frames then begin
    let undelivered = Array.fold_left (fun acc r -> acc + r.undelivered) 0 rs in
    Printf.printf "  %-28s %16.6g %-6s  %d of %d frames (simulated outcome, digest-checked)\n"
      "undelivered_ratio"
      (float_of_int undelivered /. float_of_int attempted)
      "ratio" undelivered attempted
  end;
  result_line ~attempted ~failed
    (List.map (fun m -> { m with note = "" }) ms)

(* ---- Traced run (--trace 1) ------------------------------------------------- *)

(* Every per-layer metric, in report order, with its unit.  Layers that
   do not run on a workload (or whose stats are not reachable from the
   calls the benchmark makes) report 0. *)
let per_layer =
  [
    ("engine.events", "count"); ("engine.events_per_op", "ratio");
    ("engine.event_ns_p50", "ns"); ("engine.event_ns_p99", "ns");
    ("engine.busy_s", "s");
    ("link.offered", "count"); ("link.delivered", "count");
    ("link.hops_per_op", "ratio"); ("link.queue_drops", "count");
    ("link.loss_drops", "count"); ("link.fault_drops", "count");
    ("ring.acquired", "count"); ("ring.overflow", "count");
    ("ring.capacity", "count"); ("ring.in_use_end", "count");
    ("pool.recycle_ratio", "ratio"); ("pool.dropped", "count");
    ("gc.minor_words_per_op", "words"); ("gc.major_words_per_op", "words");
    ("gc.promoted_words_per_op", "words"); ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB"); ("gc.minor_s", "s"); ("gc.major_s", "s");
    ("innet.rewritten", "count"); ("innet.sequenced", "count");
    ("innet.degraded", "count"); ("switch.processed", "count");
    ("switch.discarded", "count"); ("int.stamped", "count"); ("int.sunk", "count");
    ("mmt.delivered", "count"); ("mmt.undelivered", "count"); ("mmt.gaps", "count");
    ("mmt.recovered", "count"); ("mmt.lost", "count"); ("mmt.naks_sent", "count");
    ("mmt.resends", "count"); ("mmt.retx_hw_bytes_max", "bytes");
    ("mmt.retx_hw_bytes_sum", "bytes"); ("mmt.nak_state_hw", "count");
    ("daq.fragments", "count"); ("daq.bytes", "bytes");
    ("daq.events_built", "count"); ("daq.synth_s", "s");
    ("facility.build_s", "s"); ("facility.readback_s", "s");
    ("facility.heap_bytes_per_flow", "bytes");
    ("fault.generate_s", "s"); ("fault.faults_applied", "count");
    ("fault.violations", "count"); ("fault.events_per_trial", "ratio");
    ("fault.trial_s_sum", "s");
    ("shard.nshards", "count"); ("shard.events", "count"); ("shard.run_s", "s");
    ("self.bench_s", "s"); ("self.facility_s", "s"); ("self.pilot_s", "s");
    ("self.engine_s", "s"); ("self.shard_s", "s"); ("self.fault_s", "s");
    ("self.daq_s", "s"); ("self.gc_s", "s");
    ("trace.overhead_s", "s"); ("trace.wall_s", "s"); ("trace.spans", "count");
  ]

(* Timings of one traced repetition, from its spans, its per-event
   durations and the GC phases inside it. *)
let traced_timings root =
  Spans.poll_gc ();
  let spans = List.filter (fun s -> s.Spans.run_id = root.Spans.run_id) (Spans.spans ()) in
  let gcs =
    List.filter
      (fun g -> g.Spans.g_start >= root.Spans.start_ns && g.Spans.g_start < root.stop_ns)
      (Spans.gc_intervals ())
  in
  let sum_named name =
    List.fold_left
      (fun acc s -> if s.Spans.name = name then acc + Spans.duration s else acc)
      0 spans
  in
  let gc_sum kind =
    List.fold_left
      (fun acc g -> if g.Spans.kind = kind then acc + (g.g_stop - g.g_start) else acc)
      0 gcs
  in
  let steps = Spans.Ints.to_array step_ns in
  Array.sort compare steps;
  let layer_self = Spans.self_times spans gcs in
  let self l = s_of_ns (Option.value ~default:0 (Hashtbl.find_opt layer_self l)) in
  let facility = List.exists (fun s -> s.Spans.name = "Scenario.build") spans in
  let fault = List.exists (fun s -> s.Spans.layer = "fault") spans in
  [
    ("engine.event_ns_p50", if steps = [||] then 0. else float_of_int (percentile steps 50.));
    ("engine.event_ns_p99", if steps = [||] then 0. else float_of_int (percentile steps 99.));
    ("engine.busy_s", s_of_ns (Array.fold_left ( + ) 0 steps));
    ("gc.minor_s", s_of_ns (gc_sum Spans.Minor));
    ("gc.major_s", s_of_ns (gc_sum Spans.Major));
    ("facility.build_s", if facility then s_of_ns (sum_named "Scenario.build") else 0.);
    ("facility.readback_s", if facility then s_of_ns (sum_named "readback") else 0.);
    ("fault.generate_s", s_of_ns (sum_named "Generator.generate"));
    ("fault.trial_s_sum", if fault then s_of_ns (sum_named "target.execute") else 0.);
    ("shard.run_s", s_of_ns (sum_named "Shard.run"));
    ("self.bench_s", self "bench");
    ("self.facility_s", self "facility");
    ("self.pilot_s", self "pilot");
    ("self.engine_s", self "engine");
    ("self.shard_s", self "shard");
    ("self.fault_s", self "fault");
    ("self.gc_s", self "gc");
    ("trace.wall_s", s_of_ns (Spans.duration root));
    ("trace.spans", float_of_int (List.length spans));
  ]

let write_trace ~path ~(w : workload) ~seed ~metrics =
  let spans = Spans.spans () in
  let gcs = Spans.gc_intervals () in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\"workload\": %s, \"seed\": %Ld, \"env\": %s,\n"
        (Spans.json_string w.name) seed (env_json ());
      Printf.fprintf oc " \"gc_events_lost\": %d,\n \"metrics\": {%s},\n"
        !Spans.gc_lost
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s: %.17g" (Spans.json_string k) v) metrics));
      Printf.fprintf oc " \"spans\": [\n  %s],\n"
        (String.concat ",\n  " (List.map Spans.span_json spans));
      Printf.fprintf oc " \"gc_phases\": [\n  %s]}\n"
        (String.concat ",\n  " (List.map Spans.gc_json gcs)))

let traced (w : workload) ~seed ~seconds ~reference ~out =
  let lib = reference_checks w ~seed ~reference in
  let half = seconds /. 2. in
  let plain = repeat ~seconds:half ~min_reps:1 (fun _ -> measure w ~trace:false ~seed) in
  check_reps w ~lib plain;
  Spans.start_gc_events ();
  Spans.enabled := true;
  let timings = ref [] in
  let traced_reps =
    repeat ~seconds:half ~min_reps:1 (fun n ->
        let run_id = Printf.sprintf "%s/0x%LX/traced-%d" w.name seed n in
        Spans.set_run run_id;
        Spans.Ints.clear step_ns;
        Spans.poll_gc ();
        let m =
          Spans.with_span ~layer:"bench" "rep" (fun () -> measure w ~trace:true ~seed)
        in
        let root =
          List.find (fun s -> s.Spans.run_id = run_id && s.parent = -1) (Spans.spans ())
        in
        timings := traced_timings root :: !timings;
        m)
  in
  Array.iteri
    (fun n m ->
      check (m.r.digest = lib) "traced rep %d digest %s differs from the untraced %s" n
        m.r.digest lib;
      check (m.r.counts = plain.(0).r.counts)
        "traced rep %d per-layer counts differ from untraced" n)
    traced_reps;
  (* DAQ synthesis replayed alone, with the workload's config and count. *)
  let synth_s =
    match List.assoc_opt "daq.fragments" plain.(0).r.counts with
    | Some count when w.name = "pilot-lartpc" ->
        Spans.set_run (Printf.sprintf "%s/0x%LX/daq-synth" w.name seed);
        let t0 = Spans.now_ns () in
        ignore
          (Spans.with_span ~layer:"daq" "Lartpc.generate_window+serialize_window"
             (fun () -> daq_synth ~seed ~count:(int_of_float count)));
        s_of_ns (Spans.now_ns () - t0)
    | _ -> 0.
  in
  (* The shard layer on fanin-1000's own input: one repetition on
     Sim.Shard with one shard per core, whose output must equal the
     sequential engine's. *)
  let shard_probe =
    if w.name <> "fanin-1000" then []
    else begin
      let run_id = Printf.sprintf "%s/0x%LX/sharded" w.name seed in
      Spans.set_run run_id;
      let r =
        Spans.with_span ~layer:"bench" "rep" (fun () ->
            fanin_rep ~shards:(Domain.recommended_domain_count ()) ~trace:true ~seed)
      in
      check (r.digest = lib) "sharded repetition digest %s differs from the sequential %s"
        r.digest lib;
      let root =
        List.find (fun s -> s.Spans.run_id = run_id && s.parent = -1) (Spans.spans ())
      in
      let timings = traced_timings root in
      [
        ("shard.nshards", List.assoc "shard.nshards" r.counts);
        ("shard.events", List.assoc "shard.events" r.counts);
        ("shard.run_s", List.assoc "shard.run_s" timings);
        ("self.shard_s", List.assoc "self.shard_s" timings);
      ]
    end
  in
  Spans.enabled := false;
  Spans.poll_gc ();
  (* A lost phase end would merge later phases into one interval. *)
  check (!Spans.gc_lost = 0) "%d GC events lost from the runtime event ring" !Spans.gc_lost;
  held_out_check w ~reference;
  let heap_per_flow =
    if String.starts_with ~prefix:"fanin" w.name then
      facility_heap_bytes_per_flow
        ~shards:(if w.name = "fanin-1000" then 1 else Domain.recommended_domain_count ())
        ~seed
    else 0.
  in
  let m0 = plain.(0) in
  let ops = float_of_int (max 1 m0.r.ops) in
  let d f = f m0.gc1 -. f m0.gc0 in
  let counts = m0.r.counts in
  let count k = Option.value ~default:0. (List.assoc_opt k counts) in
  let median_of key =
    median_float (Array.of_list (List.map (fun t -> List.assoc key t) !timings))
  in
  let traced_wall = median_of "trace.wall_s" in
  let plain_wall = median_int (Array.map (fun m -> wall m.r) plain) /. 1e9 in
  let derived =
    [
      ("engine.events_per_op", count "engine.events" /. ops);
      ("link.hops_per_op", count "link.delivered" /. ops);
      ("gc.minor_words_per_op", d (fun s -> s.Gc.minor_words) /. ops);
      ("gc.major_words_per_op", d (fun s -> s.Gc.major_words) /. ops);
      ("gc.promoted_words_per_op", d (fun s -> s.Gc.promoted_words) /. ops);
      ("gc.major_collections", d (fun s -> float_of_int s.Gc.major_collections));
      ( "gc.top_heap_mb",
        float_of_int (m0.gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 );
      ("daq.synth_s", synth_s);
      ("self.daq_s", synth_s);
      ("facility.heap_bytes_per_flow", heap_per_flow);
      ("trace.overhead_s", traced_wall -. plain_wall);
    ]
    @ shard_probe
  in
  let value name =
    match List.assoc_opt name derived with
    | Some v -> v
    | None -> (
        match List.assoc_opt name counts with
        | Some v -> v
        | None -> (
            match List.assoc_opt name (List.hd !timings) with
            | Some _ -> median_of name
            | None -> 0.))
  in
  let ms = List.map (fun (name, unit_) -> metric name unit_ (value name)) per_layer in
  Printf.printf "per-layer, %s seed 0x%LX (%d untraced, %d traced repetitions):\n" w.name seed
    (Array.length plain) (Array.length traced_reps);
  print_metrics ms;
  Printf.printf "  tracing overhead: traced wall %.4f s - untraced wall %.4f s = %.4f s\n"
    traced_wall plain_wall (traced_wall -. plain_wall);
  let path = Filename.concat out (Printf.sprintf "trace-%s-seed%Ld.json" w.name seed) in
  write_trace ~path ~w ~seed ~metrics:(List.map (fun m -> (m.key, m.value)) ms);
  Printf.printf "spans written to %s\n" path;
  let attempted, failed = tally ~lib traced_reps in
  result_line ~attempted ~failed ms

(* ---- Command line ------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref "" and seconds = ref 10. and trace = ref 0 in
  let reference = ref "perfbench/reference.txt" and out = ref "perfbench/out" in
  let record_mode = ref false and once = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_string seed, "N workload seed (default: the workload's own)");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--reference", Arg.Set_string reference, "FILE recorded digests");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its spans");
      ("--record", Arg.Set record_mode, " recompute and write the reference digests");
      ("--once", Arg.Set once, " run one repetition and nothing else (for peak RSS)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]";
  if !record_mode then record !reference
  else
    match Workloads.find !workload with
    | None ->
        Printf.eprintf "unknown workload %S; known: %s\n" !workload
          (String.concat ", " (List.map (fun (w : workload) -> w.name) Workloads.all));
        exit 2
    | Some w ->
        let seed = if !seed = "" then w.default_seed else Int64.of_string !seed in
        let reference = load_reference !reference in
        if !once then ignore (w.rep ~trace:false ~seed)
        else begin
          Printf.printf "env: %s\n%!" (env_json ());
          if !trace = 0 then end_to_end w ~seed ~seconds:!seconds ~reference
          else traced w ~seed ~seconds:!seconds ~reference ~out:!out
        end;
        if !problems <> [] then exit 1

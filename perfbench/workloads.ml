(* The benchmark's workloads, each driven through the libraries' public
   functions (never the CLI).

   A repetition ([rep]) is one batch job at fixed input: set-up,
   simulate to quiescence, read the results back.  It returns its
   phase times, its operation counts, a digest of its simulated output,
   and the exact per-layer counts read from the layers' own stats
   records.  With [~trace:true] the same calls run inside spans, and
   the engine loop is driven one event at a time so each event can be
   timed. *)

open Mmt_util
module Engine = Mmt_sim.Engine
module Scenario = Mmt_facility.Scenario
module Pilot = Mmt_pilot.Pilot
module Chaos_run = Mmt_pilot.Chaos_run
module Campaign = Mmt_fault.Campaign
module Generator = Mmt_fault.Generator

type rep = {
  digest : string;
  setup_ns : int;
  sim_ns : int;
  readback_ns : int;
  ops : int;  (** application-delivered frames, or completed trials *)
  attempted : int;  (** emitted frames, or trials *)
  failed : int;  (** trials that broke an invariant or hit the watchdog *)
  undelivered : int;
      (** frames emitted but never delivered: the simulated network's
          fate for them, pinned by the digest, not a benchmark failure *)
  trial_ns : int array;  (** host time of each simulation in the rep *)
  counts : (string * float) list;  (** exact per-layer counts *)
}

type workload = {
  name : string;
  default_seed : int64;
  held_out_seed : int64;
  reference_of : string;  (** whose recorded digests this workload must equal *)
  reference : seed:int64 -> string;
      (** digest computed by the library's own end-to-end entry point *)
  rep : trace:bool -> seed:int64 -> rep;
  setup : seed:int64 -> unit;  (** the repetition's set-up phase alone *)
  frames : bool;  (** operations are frames (else campaign trials) *)
}

let digest_of value =
  Digest.to_hex (Digest.string (Marshal.to_string value [ Marshal.No_sharing ]))

let i = float_of_int

(* ---- Traced engine drive ---------------------------------------------- *)

(* Per-event host times of the last traced drive. *)
let step_ns = Spans.Ints.create ()

let timed_step engine step =
  let t0 = Spans.now_ns () in
  let more = step engine in
  Spans.Ints.push step_ns (Spans.now_ns () - t0);
  if step_ns.Spans.Ints.len land 4095 = 0 then Spans.poll_gc ();
  more

(* [Engine.run ~until], one event at a time.  [run_bounded ~budget:1]
   executes exactly the event [run ~until] would execute next (it
   drains cancelled roots first, as the run loop does) and reports
   whether the window is exhausted; the final [run ~until] only applies
   the clock clamp. *)
let drive_until engine ~until =
  let limit = Units.Time.to_ns until in
  let step e = not (Engine.run_bounded e ~until ~budget:1) in
  while Engine.next_event_ns engine <= limit && timed_step engine step do
    ()
  done;
  Engine.run ~until engine

(* [Engine.run] (no bound), one event at a time. *)
let drive_all engine =
  while timed_step engine Engine.step do
    ()
  done

(* ---- fanin-1000 / fanin-1000-sharded ---------------------------------- *)

let fanin_config seed =
  {
    Scenario.default with
    Scenario.flows = 1000;
    duration = Units.Time.ms 3.;
    wan_loss = 0.002;
    seed;
  }

let fanin_digest (r : Scenario.result) =
  digest_of (r.Scenario.summary, r.samples, r.sim_time, r.events)

(* The library's own path: always sequential, so the sharded workload is
   checked against the sequential engine. *)
let fanin_reference ~seed = fanin_digest (Scenario.run (fanin_config seed))

(* [Scenario.run]'s read-back, over the handles the build returned. *)
let fanin_readback config (built : Scenario.built) events =
  let get table f = Option.get (Mmt_facility.Flow_table.get table f) in
  let samples =
    Array.init config.Scenario.flows (fun f ->
        let w = Mmt_daq.Workload.stats (get built.workloads f) in
        let r = Mmt.Receiver.stats (get built.receivers f) in
        let b = Mmt.Buffer_host.stats (get built.buffers f) in
        {
          Mmt_facility.Metrics.kind =
            Scenario.kind_label (Scenario.kind_of_flow f);
          emitted = w.Mmt_daq.Workload.fragments_emitted;
          emitted_bytes = w.bytes_emitted;
          delivered = r.Mmt.Receiver.delivered;
          delivered_bytes = r.delivered_bytes;
          late = r.late;
          lost = r.lost + r.still_missing;
          recovered = r.recovered;
          retx_occupancy_hw =
            Units.Size.to_bytes
              b.Mmt.Buffer_host.buffer.Mmt.Retx_buffer.occupancy_high_water;
          retx_entries_hw = b.buffer.entries_high_water;
          nak_state_hw = r.nak_state_high_water;
        })
  in
  let first = ref None and last = ref None in
  Mmt_facility.Flow_table.iter
    (fun _ receiver ->
      let r = Mmt.Receiver.stats receiver in
      (match r.Mmt.Receiver.first_arrival with
      | Some t ->
          first :=
            Some (match !first with None -> t | Some f -> Units.Time.min f t)
      | None -> ());
      match r.last_arrival with
      | Some t ->
          last := Some (match !last with None -> t | Some l -> Units.Time.max l t)
      | None -> ())
    built.receivers;
  let window =
    match (!first, !last) with
    | Some f, Some l -> Units.Time.diff l f
    | _ -> Units.Time.zero
  in
  {
    Scenario.summary = Mmt_facility.Metrics.summarize ~window samples;
    samples;
    sim_time = window;
    events;
  }

let link_counts links =
  let sum f = i (List.fold_left (fun acc l -> acc + f (Mmt_sim.Link.stats l)) 0 links) in
  let open Mmt_sim.Link in
  [
    ("link.offered", sum (fun s -> s.offered));
    ("link.delivered", sum (fun s -> s.delivered));
    ("link.queue_drops", sum (fun s -> s.queue_drops));
    ("link.loss_drops", sum (fun s -> s.loss_drops));
    ("link.fault_drops", sum (fun s -> s.fault_drops));
  ]

let ring_counts rings =
  let sum f = i (List.fold_left (fun acc r -> acc + f (Mmt_sim.Ring.stats r)) 0 rings) in
  let pools = List.map (fun r -> Mmt_sim.Pool.stats (Mmt_sim.Ring.pool r)) rings in
  let psum f = List.fold_left (fun acc p -> acc + f p) 0 pools in
  let acquired = psum (fun p -> p.Mmt_sim.Pool.acquired) in
  let open Mmt_sim.Ring in
  [
    ("ring.acquired", sum (fun s -> s.acquired));
    ("ring.overflow", sum (fun s -> s.overflow));
    ("ring.capacity", sum (fun s -> s.capacity));
    ("ring.in_use_end", sum (fun s -> s.in_use));
    ( "pool.recycle_ratio",
      if acquired = 0 then 0.
      else i (psum (fun p -> p.Mmt_sim.Pool.recycled)) /. i acquired );
    ("pool.dropped", i (psum (fun p -> p.Mmt_sim.Pool.dropped)));
  ]

let fanin_counts topo (built : Scenario.built) nshards =
  let fold table f init =
    let acc = ref init in
    Mmt_facility.Flow_table.iter (fun _ x -> acc := f x !acc) table;
    !acc
  in
  let rsum f = i (fold built.receivers (fun r acc -> acc + f (Mmt.Receiver.stats r)) 0) in
  let rmax f = i (fold built.receivers (fun r acc -> max acc (f (Mmt.Receiver.stats r))) 0) in
  let bstats f g = fold built.buffers (fun b acc -> g acc (f (Mmt.Buffer_host.stats b))) 0 in
  let wsum f = i (fold built.workloads (fun w acc -> acc + f (Mmt_daq.Workload.stats w)) 0) in
  let mrsum f =
    i (fold built.rewriters (fun m acc -> acc + f (Mmt_innet.Mode_rewriter.stats m)) 0)
  in
  let retx_hw b =
    Units.Size.to_bytes b.Mmt.Buffer_host.buffer.Mmt.Retx_buffer.occupancy_high_water
  in
  let rings =
    List.filter_map (Mmt_sim.Topology.ring_of_shard topo) (List.init nshards Fun.id)
  in
  link_counts (Mmt_sim.Topology.links topo)
  @ ring_counts rings
  @ [
      ("innet.rewritten", mrsum (fun s -> s.Mmt_innet.Mode_rewriter.rewritten));
      ("innet.sequenced", mrsum (fun s -> s.sequenced));
      ("innet.degraded", mrsum (fun s -> s.degraded));
      ("mmt.delivered", rsum (fun s -> s.Mmt.Receiver.delivered));
      ("mmt.gaps", rsum (fun s -> s.gaps_detected));
      ("mmt.recovered", rsum (fun s -> s.recovered));
      ("mmt.lost", rsum (fun s -> s.lost + s.still_missing));
      ("mmt.naks_sent", rsum (fun s -> s.naks_sent));
      ("mmt.resends", i (bstats (fun b -> b.Mmt.Buffer_host.frames_resent) ( + )));
      ("mmt.retx_hw_bytes_max", i (bstats retx_hw max));
      ("mmt.retx_hw_bytes_sum", i (bstats retx_hw ( + )));
      ("mmt.nak_state_hw", rmax (fun s -> s.nak_state_high_water));
      ("daq.fragments", wsum (fun s -> s.Mmt_daq.Workload.fragments_emitted));
      ("daq.bytes", wsum (fun s -> s.bytes_emitted));
      ("shard.nshards", i nshards);
    ]

let fanin_build ~shards config =
  Mmt_sim.Shard.build ~shards ~pooling:true ~fusing:true (Scenario.build config)

let fanin_rep ~shards ~trace ~seed =
  let config = fanin_config seed in
  let until = Units.Time.add config.Scenario.duration (Units.Time.seconds 1.) in
  let t0 = Spans.now_ns () in
  let topo, built, runner =
    Spans.with_span ~layer:"facility" "Scenario.build" (fun () ->
        fanin_build ~shards config)
  in
  if trace then Spans.poll_gc ();
  let t1 = Spans.now_ns () in
  let events, nshards =
    match runner with
    | None ->
        let engine = Mmt_sim.Topology.engine topo in
        if trace then
          Spans.with_span ~layer:"engine" "Engine.step" (fun () ->
              drive_until engine ~until)
        else Engine.run ~until engine;
        (Engine.processed engine, 1)
    | Some r ->
        Spans.with_span ~layer:"shard" "Shard.run" (fun () ->
            Mmt_sim.Shard.run ~until r);
        (Mmt_sim.Shard.events r, Mmt_sim.Shard.nshards r)
  in
  let t2 = Spans.now_ns () in
  let result =
    Spans.with_span ~layer:"facility" "readback" (fun () ->
        fanin_readback config built events)
  in
  let t3 = Spans.now_ns () in
  let summary = result.Scenario.summary in
  {
    digest = fanin_digest result;
    setup_ns = t1 - t0;
    sim_ns = t2 - t1;
    readback_ns = t3 - t2;
    ops = summary.Mmt_facility.Metrics.delivered;
    attempted = summary.emitted;
    failed = 0;
    undelivered = summary.emitted - summary.delivered;
    trial_ns = [| t3 - t0 |];
    counts =
      ("engine.events", i events)
      :: ("shard.events", if runner = None then 0. else i events)
      :: ("mmt.undelivered", i (summary.emitted - summary.delivered))
      :: fanin_counts topo built nshards;
  }

let fanin_setup ~shards ~seed =
  ignore (Sys.opaque_identity (fanin_build ~shards (fanin_config seed)))

(* Live heap the facility build leaves behind, per flow.  Run outside
   any timed repetition: it forces full collections. *)
let facility_heap_bytes_per_flow ~shards ~seed =
  let config = fanin_config seed in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let kept = fanin_build ~shards config in
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity kept);
  i ((after - before) * (Sys.word_size / 8)) /. i config.flows

(* ---- pilot-lartpc -------------------------------------------------------- *)

(* E-F4's detector shape: 16 channels x 128 ticks of synthesized
   waveform per fragment. *)
let lartpc = { Mmt_daq.Lartpc.iceberg with channels = 16; samples_per_channel = 128 }
let pilot_fragments = 4000

let pilot_config seed =
  {
    Pilot.default_config with
    Pilot.profile = Mmt_pilot.Profile.physical_100gbe;
    scale = 1e-4;
    fragment_count = pilot_fragments;
    payload = Mmt_daq.Workload.Raw_window (lartpc, Mmt_daq.Lartpc.Beam_event);
    wan_loss = 0.003;
    wan_corrupt = 0.001;
    age_budget_us = 30_000;
    int_telemetry = true;
    seed;
  }

let pilot_digest results = digest_of (results : Pilot.results)

let pilot_reference ~seed =
  let p = Pilot.build (pilot_config seed) in
  Pilot.run p;
  pilot_digest (Pilot.results p)

let pilot_counts p (r : Pilot.results) =
  let rings = Pilot.ring_stats p in
  let rsum f = i (List.fold_left (fun acc s -> acc + f s) 0 rings) in
  let recv = r.receiver and buf = r.buffer in
  let switches = [ r.dtn1_switch; r.tofino_switch ] in
  let ssum f = i (List.fold_left (fun acc s -> acc + f s) 0 switches) in
  let stamped =
    List.fold_left
      (fun acc (_, s) -> acc + s.Mmt_int.Stamper.stamped)
      0 (Pilot.int_stamper_stats p)
  in
  let retx_hw = Units.Size.to_bytes buf.buffer.Mmt.Retx_buffer.occupancy_high_water in
  let wan = [ r.wan_a; r.wan_b ] in
  let lsum f = i (List.fold_left (fun acc s -> acc + f s) 0 wan) in
  let open Mmt_sim.Link in
  [
    ("link.offered", lsum (fun s -> s.offered));
    ("link.delivered", lsum (fun s -> s.delivered));
    ("link.queue_drops", lsum (fun s -> s.queue_drops));
    ("link.loss_drops", lsum (fun s -> s.loss_drops));
    ("link.fault_drops", lsum (fun s -> s.fault_drops));
    ("ring.acquired", rsum (fun s -> s.Mmt_sim.Ring.acquired));
    ("ring.overflow", rsum (fun s -> s.Mmt_sim.Ring.overflow));
    ("ring.capacity", rsum (fun s -> s.Mmt_sim.Ring.capacity));
    ("ring.in_use_end", rsum (fun s -> s.Mmt_sim.Ring.in_use));
    ("innet.rewritten", i r.rewriter.Mmt_innet.Mode_rewriter.rewritten);
    ("innet.sequenced", i r.rewriter.sequenced);
    ("innet.degraded", i r.rewriter.degraded);
    ("switch.processed", ssum (fun s -> s.Mmt_innet.Switch.processed));
    ("switch.discarded", ssum (fun s -> s.Mmt_innet.Switch.discarded));
    ("int.stamped", i stamped);
    ( "int.sunk",
      match Pilot.int_sink_stats p with
      | Some s -> i s.Mmt_int.Sink.stripped
      | None -> 0. );
    ("mmt.delivered", i recv.Mmt.Receiver.delivered);
    ("mmt.gaps", i recv.gaps_detected);
    ("mmt.recovered", i recv.recovered);
    ("mmt.lost", i (recv.lost + recv.still_missing));
    ("mmt.naks_sent", i recv.naks_sent);
    ("mmt.resends", i buf.Mmt.Buffer_host.frames_resent);
    ("mmt.retx_hw_bytes_max", i retx_hw);
    ("mmt.retx_hw_bytes_sum", i retx_hw);
    ("mmt.nak_state_hw", i recv.nak_state_high_water);
    ("daq.fragments", i r.emitted);
    ("daq.bytes", i r.sender.Mmt.Sender.bytes_sent);
    ("daq.events_built", i r.events.Mmt_daq.Event_builder.complete);
    ("shard.nshards", i (Pilot.nshards p));
  ]

let pilot_rep ~trace ~seed =
  let config = pilot_config seed in
  let t0 = Spans.now_ns () in
  let p =
    Spans.with_span ~layer:"pilot" "Pilot.build" (fun () -> Pilot.build config)
  in
  if trace then Spans.poll_gc ();
  let t1 = Spans.now_ns () in
  if trace then
    Spans.with_span ~layer:"engine" "Engine.step" (fun () ->
        drive_all (Pilot.engine p))
  else Pilot.run p;
  let t2 = Spans.now_ns () in
  let r = Spans.with_span ~layer:"pilot" "readback" (fun () -> Pilot.results p) in
  let t3 = Spans.now_ns () in
  let delivered = r.receiver.Mmt.Receiver.delivered in
  {
    digest = pilot_digest r;
    setup_ns = t1 - t0;
    sim_ns = t2 - t1;
    readback_ns = t3 - t2;
    ops = delivered;
    attempted = r.emitted;
    failed = 0;
    undelivered = r.emitted - delivered;
    trial_ns = [| t3 - t0 |];
    counts =
      ("engine.events", i (Engine.processed (Pilot.engine p)))
      :: ("mmt.undelivered", i (r.emitted - delivered))
      :: pilot_counts p r;
  }

let pilot_setup ~seed = ignore (Sys.opaque_identity (Pilot.build (pilot_config seed)))

(* The workload's fragment synthesis, replayed on its own: the same
   LArTPC config and activity, one window per emitted fragment. *)
let daq_synth ~seed ~count =
  let rng = Rng.create ~seed in
  let bytes = ref 0 in
  for _ = 1 to count do
    let window =
      Mmt_daq.Lartpc.generate_window lartpc rng ~activity:Mmt_daq.Lartpc.Beam_event
    in
    bytes := !bytes + Bytes.length (Mmt_daq.Lartpc.serialize_window window)
  done;
  !bytes

(* ---- chaos-pilot --------------------------------------------------------- *)

let chaos_trials = 100

let chaos_reference ~seed =
  let report =
    Campaign.run (Chaos_run.campaign_target ()) ~trials:chaos_trials ~seed
  in
  Digest.to_hex (Digest.string (Campaign.render ~verbose:true report))

(* [Campaign.run] unrolled: plans are generated up front (set-up), then
   each is executed with [Chaos_run.run] against the profile-matched
   base, exactly as [Chaos_run.campaign_target]'s [execute] does, so the
   trial's full outcome (not only the campaign's summary of it) can be
   read back.  Each trial builds its own engine, topology, rings and
   pools inside [Chaos_run.run], so that set-up is timed as part of the
   trial, not of [setup_ns].  The readback rebuilds the campaign's exec
   record from the outcome as [execute] does ([Chaos_run.campaign_exec]
   is not exported); the digest check against [Campaign.run] + [render]
   catches any drift between the two. *)
let chaos_build ~seed =
  let target, lossy, degrading =
    Spans.with_span ~layer:"fault" "Chaos_run.campaign_target" (fun () ->
        ( Chaos_run.campaign_target (),
          Chaos_run.campaign_trial (),
          Chaos_run.campaign_trial_degrading () ))
  in
  let seeds = Campaign.trial_seeds ~seed ~trials:chaos_trials in
  let plans =
    Array.map
      (fun trial_seed ->
        Spans.with_span ~layer:"fault" "Generator.generate" (fun () ->
            Generator.generate target.Campaign.universe ~seed:trial_seed))
      seeds
  in
  (target, lossy, degrading, seeds, plans)

let chaos_setup ~seed = ignore (Sys.opaque_identity (chaos_build ~seed))

let chaos_rep ~trace ~seed =
  let t0 = Spans.now_ns () in
  let target, lossy, degrading, seeds, plans = chaos_build ~seed in
  let t1 = Spans.now_ns () in
  let trial_ns = Array.make chaos_trials 0 in
  let outcomes =
    Array.mapi
      (fun index (profile, plan) ->
        let base =
          match profile with Generator.Lossy -> lossy | Generator.Degrading -> degrading
        in
        let a = Spans.now_ns () in
        let o =
          Spans.with_span ~layer:"fault" "target.execute" (fun () ->
              Chaos_run.run { base with Chaos_run.plan })
        in
        trial_ns.(index) <- Spans.now_ns () - a;
        (* A trial is never polled inside: drain the event ring
           between trials, outside the trial's timed window. *)
        if trace then Spans.poll_gc ();
        o)
      plans
  in
  let t2 = Spans.now_ns () in
  let text =
    Spans.with_span ~layer:"fault" "readback" (fun () ->
        let results =
          Array.mapi
            (fun index (o : Chaos_run.outcome) ->
              let profile, plan = plans.(index) in
              {
                Campaign.index;
                seed = seeds.(index);
                profile;
                plan;
                exec =
                  {
                    Campaign.outcome = o.invariant;
                    violations = o.violations;
                    faults_applied = o.faults_applied;
                    events = o.events;
                  };
              })
            outcomes
        in
        Campaign.render ~verbose:true
          {
            Campaign.target = target.name;
            trials = chaos_trials;
            campaign_seed = seed;
            generator = Generator.default_config;
            results;
          })
  in
  let t3 = Spans.now_ns () in
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let rsum f = i (sum (fun (o : Chaos_run.outcome) -> f o.receiver)) in
  let violating = sum (fun o -> if o.Chaos_run.violations = [] then 0 else 1) in
  let events = sum (fun o -> o.Chaos_run.events) in
  {
    digest = Digest.to_hex (Digest.string text);
    setup_ns = t1 - t0;
    sim_ns = t2 - t1;
    readback_ns = t3 - t2;
    ops = chaos_trials;
    attempted = chaos_trials;
    failed = violating;
    undelivered = 0;
    trial_ns;
    counts =
      [
        ("engine.events", i events);
        ("link.fault_drops", i (sum (fun o -> o.Chaos_run.fault_drops)));
        ("innet.degraded", i (sum (fun o -> o.Chaos_run.degraded_rewrites)));
        ("mmt.delivered", rsum (fun s -> s.Mmt.Receiver.delivered));
        ("mmt.gaps", rsum (fun s -> s.gaps_detected));
        ("mmt.recovered", rsum (fun s -> s.recovered));
        ("mmt.lost", rsum (fun s -> s.lost + s.still_missing));
        ("mmt.naks_sent", rsum (fun s -> s.naks_sent));
        ( "mmt.nak_state_hw",
          i
            (Array.fold_left
               (fun acc o -> max acc o.Chaos_run.receiver.nak_state_high_water)
               0 outcomes) );
        ("fault.faults_applied", i (sum (fun o -> o.Chaos_run.faults_applied)));
        ("fault.violations", i violating);
        ("fault.events_per_trial", i events /. i chaos_trials);
        ("shard.nshards", 1.);
      ];
  }

(* ---- Registry -------------------------------------------------------------- *)

let all =
  let fanin name shards =
    {
      name;
      default_seed = 42L;
      held_out_seed = 7L;
      reference_of = "fanin-1000";
      reference = fanin_reference;
      rep = fanin_rep ~shards;
      setup = fanin_setup ~shards;
      frames = true;
    }
  in
  [
    (* E-F5 at facility scale: engine, link, ring, GC and per-flow MMT
       state do the work; synthetic payloads leave DAQ synthesis idle. *)
    fanin "fanin-1000" 1;
    (* The only workload that runs Sim.Shard (ROADMAP item 3). *)
    fanin "fanin-1000-sharded" (Domain.recommended_domain_count ());
    (* One elephant flow through the full mode 0->1->3 header path with
       INT; LArTPC waveform synthesis dominates. *)
    {
      name = "pilot-lartpc";
      default_seed = 42L;
      held_out_seed = 7L;
      reference_of = "pilot-lartpc";
      reference = pilot_reference;
      rep = pilot_rep;
      setup = pilot_setup;
      frames = true;
    };
    (* Many short simulations, each paying its own set-up, with fault
       hooks and the invariant ledger per trial. *)
    {
      name = "chaos-pilot";
      default_seed = 0xC4A05EEDL;
      held_out_seed = 0x5EED0B57L;
      reference_of = "chaos-pilot";
      reference = chaos_reference;
      rep = chaos_rep;
      setup = chaos_setup;
      frames = false;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

open Mmt_util
module Engine = Mmt_sim.Engine

let time = Alcotest.testable Units.Time.pp Units.Time.equal

let test_runs_in_time_order () =
  let engine = Engine.create () in
  let order = ref [] in
  ignore (Engine.schedule engine ~at:(Units.Time.us 30.) (fun () -> order := 3 :: !order));
  ignore (Engine.schedule engine ~at:(Units.Time.us 10.) (fun () -> order := 1 :: !order));
  ignore (Engine.schedule engine ~at:(Units.Time.us 20.) (fun () -> order := 2 :: !order));
  Engine.run engine;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !order)

let test_fifo_for_equal_times () =
  let engine = Engine.create () in
  let order = ref [] in
  for i = 1 to 50 do
    ignore (Engine.schedule engine ~at:(Units.Time.us 5.) (fun () -> order := i :: !order))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "insertion order" (List.init 50 (fun i -> i + 1))
    (List.rev !order)

let test_clock_advances () =
  let engine = Engine.create () in
  let seen = ref Units.Time.zero in
  ignore (Engine.schedule engine ~at:(Units.Time.ms 2.) (fun () -> seen := Engine.now engine));
  Engine.run engine;
  Alcotest.check time "clock at event time" (Units.Time.ms 2.) !seen;
  Alcotest.check time "clock stays" (Units.Time.ms 2.) (Engine.now engine)

let test_past_events_run_now () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~at:(Units.Time.ms 1.) (fun () -> ()));
  Engine.run engine;
  let fired_at = ref Units.Time.zero in
  ignore
    (Engine.schedule engine ~at:Units.Time.zero (fun () -> fired_at := Engine.now engine));
  Engine.run engine;
  Alcotest.check time "not in the past" (Units.Time.ms 1.) !fired_at

let test_reentrant_scheduling () =
  let engine = Engine.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then begin
      incr count;
      ignore (Engine.schedule_after engine ~delay:(Units.Time.us 1.) (fun () -> chain (n - 1)))
    end
  in
  chain 100;
  Engine.run engine;
  Alcotest.(check int) "all chained events ran" 100 !count;
  Alcotest.check time "clock" (Units.Time.us 100.) (Engine.now engine)

let test_cancellation () =
  let engine = Engine.create () in
  let fired = ref false in
  let handle = Engine.schedule engine ~at:(Units.Time.ms 1.) (fun () -> fired := true) in
  Engine.cancel engine handle;
  Engine.cancel engine handle;
  Engine.run engine;
  Alcotest.(check bool) "cancelled event skipped" false !fired

let test_run_until () =
  let engine = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule engine ~at:(Units.Time.ms 1.) (fun () -> fired := 1 :: !fired));
  ignore (Engine.schedule engine ~at:(Units.Time.ms 5.) (fun () -> fired := 5 :: !fired));
  Engine.run ~until:(Units.Time.ms 2.) engine;
  Alcotest.(check (list int)) "only first fired" [ 1 ] !fired;
  Alcotest.check time "clock advanced to until" (Units.Time.ms 2.) (Engine.now engine);
  Engine.run engine;
  Alcotest.(check (list int)) "rest fired later" [ 5; 1 ] !fired

let test_pending_and_processed () =
  let engine = Engine.create () in
  let h1 = Engine.schedule engine ~at:(Units.Time.ms 1.) ignore in
  ignore (Engine.schedule engine ~at:(Units.Time.ms 2.) ignore);
  Alcotest.(check int) "pending" 2 (Engine.pending engine);
  Engine.cancel engine h1;
  Alcotest.(check int) "pending after cancel" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "processed" 1 (Engine.processed engine);
  Alcotest.(check int) "pending drained" 0 (Engine.pending engine)

let test_step () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~at:(Units.Time.us 1.) ignore);
  ignore (Engine.schedule engine ~at:(Units.Time.us 2.) ignore);
  Alcotest.(check bool) "step 1" true (Engine.step engine);
  Alcotest.(check bool) "step 2" true (Engine.step engine);
  Alcotest.(check bool) "step empty" false (Engine.step engine)

let test_heap_stress () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:77L in
  let last = ref Units.Time.zero in
  let monotone = ref true in
  for _ = 1 to 10_000 do
    let at = Units.Time.of_int_ns (Rng.int rng ~bound:1_000_000) in
    ignore
      (Engine.schedule engine ~at (fun () ->
           if Units.Time.(Engine.now engine < !last) then monotone := false;
           last := Engine.now engine))
  done;
  Engine.run engine;
  Alcotest.(check bool) "clock monotone over 10k random events" true !monotone;
  Alcotest.(check int) "all processed" 10_000 (Engine.processed engine)

let test_mass_cancellation () =
  let engine = Engine.create () in
  let fired = ref 0 in
  let handles =
    List.init 1000 (fun i ->
        Engine.schedule engine
          ~at:(Units.Time.of_int_ns (i + 1))
          (fun () -> incr fired))
  in
  (* Cancel 600 of 1000: every event except those with index mod 5 < 2. *)
  List.iteri (fun i h -> if i mod 5 >= 2 then Engine.cancel engine h) handles;
  Alcotest.(check int) "pending reflects cancellations exactly" 400
    (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "only live events ran" 400 !fired;
  Alcotest.(check int) "processed" 400 (Engine.processed engine);
  Alcotest.(check int) "drained" 0 (Engine.pending engine)

let test_cancel_after_run () =
  let engine = Engine.create () in
  let handle = Engine.schedule engine ~at:(Units.Time.us 1.) ignore in
  ignore (Engine.schedule engine ~at:(Units.Time.us 2.) ignore);
  Engine.run engine;
  (* Cancelling a handle whose event already ran must not corrupt the
     live/pending accounting. *)
  Engine.cancel engine handle;
  Engine.cancel engine handle;
  Alcotest.(check int) "pending unaffected" 0 (Engine.pending engine);
  ignore (Engine.schedule engine ~at:(Units.Time.us 3.) ignore);
  Alcotest.(check int) "new event counted" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "all three processed" 3 (Engine.processed engine)

let test_compaction_preserves_order () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:41L in
  let last = ref Units.Time.zero in
  let monotone = ref true in
  let fired = ref 0 in
  let handles = ref [] in
  for i = 1 to 2_000 do
    let at = Units.Time.of_int_ns (Rng.int rng ~bound:100_000) in
    let h =
      Engine.schedule engine ~at (fun () ->
          if Units.Time.(Engine.now engine < !last) then monotone := false;
          last := Engine.now engine;
          incr fired)
    in
    handles := (i, h) :: !handles
  done;
  (* Cancel two thirds to force several compactions mid-stream. *)
  List.iter (fun (i, h) -> if i mod 3 <> 0 then Engine.cancel engine h) !handles;
  let expected_live = List.length (List.filter (fun (i, _) -> i mod 3 = 0) !handles) in
  Alcotest.(check int) "pending after burst" expected_live (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check bool) "clock monotone through compactions" true !monotone;
  Alcotest.(check int) "survivors all ran" expected_live (Engine.processed engine);
  Alcotest.(check int) "survivor set fired" expected_live !fired

(* Differential fuzz of the ordering contract: events run in total
   (at, seq) order.  The SoA heap and a reference model — the live
   events as a list kept sorted by (at, seq) — are driven through the
   same random stream of ordinary and boundary-lane schedules, cancels
   and drains ([step], [run], [run ~until], [run_until],
   [run_bounded]).  Requested times fall a few nanoseconds around the
   clock, so same-instant ties and clamped past schedules are the
   common case, and callbacks themselves schedule and cancel, as link
   and transport code does.  Every event the engine fires must be the
   model's head at that moment, at the model's clock; pending counts,
   clocks and drain verdicts must agree after every action. *)
type model_event = { m_at : int; m_seq : int; m_id : int }

let model_insert e events =
  let before x = x.m_at < e.m_at || (x.m_at = e.m_at && x.m_seq < e.m_seq) in
  let rec go = function
    | x :: rest when before x -> x :: go rest
    | rest -> e :: rest
  in
  go events

let test_fuzz_matches_reference_model () =
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      let engine = Engine.create () in
      let ns = Units.Time.of_int_ns in
      let live = ref [] (* the reference: sorted by (at, seq) *) in
      let live_ids = Hashtbl.create 256 in
      let handles = Hashtbl.create 1024 in
      let clock = ref 0 in
      let next_id = ref 0 and next_seq = ref 0 and next_key = ref 0 in
      let fired = ref 0 and ties = ref 0 and nested = ref 0 in
      let boundary_fired = ref 0 and last_fired_at = ref (-1) in
      let fail fmt = Alcotest.failf ("seed %Ld: " ^^ fmt) seed in
      let add ~at_req ~seq ~boundary push =
        let id = !next_id in
        incr next_id;
        let at = max at_req !clock in
        Hashtbl.replace handles id (push id);
        Hashtbl.replace live_ids id boundary;
        live := model_insert { m_at = at; m_seq = seq; m_id = id } !live
      in
      (* Mostly a few nanoseconds around the clock (ties, and past
         times that clamp to now); sometimes further out, so the heap
         holds enough entries for cancel bursts to force compactions. *)
      let at_req () =
        if Rng.int rng ~bound:5 = 0 then !clock + Rng.int rng ~bound:64
        else max 0 (!clock + Rng.int rng ~bound:8 - 2)
      in
      let rec schedule () =
        let seq = Engine.boundary_seq_limit + !next_seq in
        incr next_seq;
        let at_req = at_req () in
        add ~at_req ~seq ~boundary:false (fun id ->
            Engine.schedule engine ~at:(ns at_req) (fire id))
      and schedule_boundary () =
        (* Unique keys whose order is unrelated to insertion order. *)
        let key = (Rng.int rng ~bound:1024 lsl 20) lor !next_key in
        incr next_key;
        let at_req = at_req () in
        add ~at_req ~seq:key ~boundary:true (fun id ->
            Engine.schedule_boundary engine ~at:(ns at_req) ~key (fire id))
      and cancel () =
        if !next_id > 0 then begin
          (* Half the time a live event; otherwise any id ever issued,
             so already-run and already-cancelled handles (the running
             event's own included) are exercised too. *)
          let victim =
            match !live with
            | _ :: _ when Rng.bool rng ->
                (List.nth !live (Rng.int rng ~bound:(List.length !live))).m_id
            | _ -> Rng.int rng ~bound:!next_id
          in
          Engine.cancel engine (Hashtbl.find handles victim);
          if Hashtbl.mem live_ids victim then begin
            Hashtbl.remove live_ids victim;
            live := List.filter (fun e -> e.m_id <> victim) !live
          end
        end
      and fire id () =
        match !live with
        | [] -> fail "event %d fired but the model holds none" id
        | head :: rest ->
            if head.m_id <> id then
              fail "event %d fired where the model expects %d" id head.m_id;
            let now = Units.Time.to_ns (Engine.now engine) in
            if now <> head.m_at then
              fail "event %d fired at %d ns, model says %d" id now head.m_at;
            if head.m_at = !last_fired_at then incr ties;
            last_fired_at := head.m_at;
            if Hashtbl.find live_ids id then incr boundary_fired;
            Hashtbl.remove live_ids id;
            live := rest;
            clock := head.m_at;
            incr fired;
            (* Subcritical branching (0.6 new events per firing), capped
               so a run can never grow without bound. *)
            if !next_id < 20_000 then begin
              let r = Rng.int rng ~bound:100 in
              if r < 50 then incr nested;
              if r < 30 then schedule ()
              else if r < 40 then (schedule (); schedule ())
              else if r < 50 then schedule_boundary ()
              else if r < 70 then cancel ()
            end
      in
      let check_state what =
        if Engine.pending engine <> Hashtbl.length live_ids then
          fail "%s: pending %d, model %d" what (Engine.pending engine)
            (Hashtbl.length live_ids);
        if Units.Time.to_ns (Engine.now engine) <> !clock then
          fail "%s: clock %d ns, model %d" what
            (Units.Time.to_ns (Engine.now engine)) !clock
      in
      let due_by limit =
        match !live with [] -> false | head :: _ -> head.m_at <= limit
      in
      let step () =
        let expected = !live <> [] in
        if Engine.step engine <> expected then
          fail "step returned %b" (not expected)
      in
      let run_window ~windowed =
        let limit = !clock + Rng.int rng ~bound:12 in
        if windowed then Engine.run ~until:(ns limit) engine
        else Engine.run_until engine ~until:(ns limit);
        if due_by limit then fail "run ~until %d left due work" limit;
        clock := max !clock limit
      in
      let run_bounded () =
        let limit = !clock + Rng.int rng ~bound:12 in
        let budget = Rng.int rng ~bound:6 in
        let before = Engine.processed engine in
        let terminated = Engine.run_bounded engine ~until:(ns limit) ~budget in
        let ran = Engine.processed engine - before in
        if terminated = due_by limit then
          fail "run_bounded said terminated=%b" terminated;
        if ran > budget || ((not terminated) && ran <> budget) then
          fail "run_bounded ran %d events on budget %d" ran budget;
        if terminated then clock := max !clock limit
      in
      let run_all () =
        Engine.run engine;
        if !live <> [] then fail "run left %d events" (List.length !live)
      in
      let drains = Array.make 5 0 in
      let drain k f =
        drains.(k) <- drains.(k) + 1;
        f ()
      in
      for _ = 1 to 3_000 do
        let r = Rng.int rng ~bound:100 in
        if r < 35 then schedule ()
        else if r < 47 then schedule_boundary ()
        else if r < 65 then cancel ()
        else if r < 78 then drain 0 step
        else if r < 86 then drain 1 (fun () -> run_window ~windowed:true)
        else if r < 92 then drain 2 (fun () -> run_window ~windowed:false)
        else if r < 99 then drain 3 run_bounded
        else drain 4 run_all;
        check_state "after action"
      done;
      run_all ();
      check_state "final drain";
      Alcotest.(check int) "drained" 0 (Engine.pending engine);
      Alcotest.(check int) "every fired event was checked" !fired
        (Engine.processed engine);
      (* The stream must actually have exercised what it claims to. *)
      Alcotest.(check bool) "same-instant ties exercised" true (!ties > 500);
      Alcotest.(check bool) "boundary lane exercised" true
        (!boundary_fired > 100);
      Alcotest.(check bool) "nested scheduling exercised" true (!nested > 500);
      Array.iteri
        (fun k n ->
          Alcotest.(check bool)
            (Printf.sprintf "drain mode %d exercised" k)
            true (n > 10))
        drains)
    [ 3L; 17L; 99L; 4242L ]

let qcheck_event_order =
  QCheck.Test.make ~name:"events always fire in schedule order" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 0 1_000))
    (fun delays ->
      let engine = Engine.create () in
      let fired = ref [] in
      List.iteri
        (fun i d ->
          ignore
            (Engine.schedule engine ~at:(Units.Time.of_int_ns d) (fun () ->
                 fired := (d, i) :: !fired)))
        delays;
      Engine.run engine;
      let result = List.rev !fired in
      let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i d -> (d, i)) delays)
      in
      result = sorted)

let test_boundary_lane_orders_before_ordinary () =
  (* At one instant: boundary events fire first (their keys sit below
     the ordinary lane's floor), ordered by key — not by insertion —
     while ordinary events keep FIFO among themselves. *)
  let engine = Engine.create () in
  let at = Units.Time.us 5. in
  let order = ref [] in
  let mark tag () = order := tag :: !order in
  ignore (Engine.schedule engine ~at (mark "ord1"));
  ignore (Engine.schedule_boundary engine ~at ~key:7 (mark "key7"));
  ignore (Engine.schedule engine ~at (mark "ord2"));
  ignore (Engine.schedule_boundary engine ~at ~key:3 (mark "key3"));
  Engine.run engine;
  Alcotest.(check (list string))
    "boundary lane first, by key; ordinary lane FIFO"
    [ "key3"; "key7"; "ord1"; "ord2" ]
    (List.rev !order)

let test_boundary_key_validation () =
  let engine = Engine.create () in
  let invalid key =
    Alcotest.check_raises
      (Printf.sprintf "key %d rejected" key)
      (Invalid_argument "Engine.schedule_boundary: key outside the boundary lane")
      (fun () ->
        ignore
          (Engine.schedule_boundary engine ~at:Units.Time.zero ~key (fun () -> ())))
  in
  invalid (-1);
  invalid (1 lsl 60);
  (* The lane edges are usable. *)
  ignore (Engine.schedule_boundary engine ~at:Units.Time.zero ~key:0 (fun () -> ()));
  ignore
    (Engine.schedule_boundary engine ~at:Units.Time.zero
       ~key:((1 lsl 60) - 1)
       (fun () -> ()));
  Engine.run engine;
  Alcotest.(check int) "both ran" 2 (Engine.processed engine)

let test_last_event_at_survives_clamp () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~at:(Units.Time.us 3.) (fun () -> ()));
  Engine.run ~until:(Units.Time.ms 1.) engine;
  Alcotest.check time "clock clamped to the horizon" (Units.Time.ms 1.)
    (Engine.now engine);
  Alcotest.check time "last event time preserved" (Units.Time.us 3.)
    (Engine.last_event_at engine)

let suite =
  [
    Alcotest.test_case "time order" `Quick test_runs_in_time_order;
    Alcotest.test_case "fifo for ties" `Quick test_fifo_for_equal_times;
    Alcotest.test_case "clock advances" `Quick test_clock_advances;
    Alcotest.test_case "past events run now" `Quick test_past_events_run_now;
    Alcotest.test_case "re-entrant scheduling" `Quick test_reentrant_scheduling;
    Alcotest.test_case "cancellation" `Quick test_cancellation;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "pending/processed" `Quick test_pending_and_processed;
    Alcotest.test_case "step" `Quick test_step;
    Alcotest.test_case "heap stress" `Quick test_heap_stress;
    Alcotest.test_case "mass cancellation" `Quick test_mass_cancellation;
    Alcotest.test_case "cancel after run" `Quick test_cancel_after_run;
    Alcotest.test_case "compaction preserves order" `Quick
      test_compaction_preserves_order;
    Alcotest.test_case "fuzz vs reference model" `Quick
      test_fuzz_matches_reference_model;
    Alcotest.test_case "boundary lane ordering" `Quick
      test_boundary_lane_orders_before_ordinary;
    Alcotest.test_case "boundary key validation" `Quick
      test_boundary_key_validation;
    Alcotest.test_case "last_event_at vs clock clamp" `Quick
      test_last_event_at_survives_clamp;
    QCheck_alcotest.to_alcotest qcheck_event_order;
  ]

(* Tests for the discrete-event simulation engine. *)

open Leed_sim

let check_float = Alcotest.(check (float 1e-9))

let test_run_returns () =
  let v = Sim.run (fun () -> 42) in
  Alcotest.(check int) "result" 42 v

let test_delay_advances_clock () =
  let t =
    Sim.run (fun () ->
        Sim.delay 1.5;
        Sim.delay 0.25;
        Sim.now ())
  in
  check_float "clock" 1.75 t

let test_zero_delay_keeps_time () =
  let t =
    Sim.run (fun () ->
        Sim.yield ();
        Sim.now ())
  in
  check_float "clock" 0.0 t

let test_spawn_ordering () =
  let log = ref [] in
  let push x = log := x :: !log in
  Sim.run (fun () ->
      Sim.spawn (fun () ->
          Sim.delay 2.;
          push "b");
      Sim.spawn (fun () ->
          Sim.delay 1.;
          push "a");
      Sim.delay 3.;
      push "main");
  Alcotest.(check (list string)) "order" [ "a"; "b"; "main" ] (List.rev !log)

let test_same_time_fifo () =
  (* Events at the same instant fire in scheduling order. *)
  let log = ref [] in
  Sim.run (fun () ->
      for i = 1 to 5 do
        Sim.spawn (fun () ->
            Sim.delay 1.;
            log := i :: !log)
      done;
      Sim.delay 2.);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_deadlock_detected () =
  Alcotest.check_raises "deadlock" (Sim.Deadlock "main process blocked forever at t=0 with 0 spawned processes")
    (fun () -> ignore (Sim.run (fun () -> Sim.suspend (fun _resume -> ()))))

let test_until_cuts_run () =
  match Sim.run ~until:1.0 (fun () -> Sim.delay 10.) with
  | () -> Alcotest.fail "should not complete"
  | exception Sim.Main_incomplete -> ()

let test_stop () =
  match
    Sim.run (fun () ->
        Sim.spawn (fun () ->
            Sim.delay 1.;
            Sim.stop ());
        Sim.delay 100.)
  with
  | () -> Alcotest.fail "should not complete"
  | exception Sim.Main_incomplete -> ()

let test_nested_runs () =
  let v =
    Sim.run (fun () ->
        Sim.delay 5.;
        let inner = Sim.run (fun () -> Sim.delay 1.; Sim.now ()) in
        (* Outer clock is restored and unaffected by the inner run. *)
        (inner, Sim.now ()))
  in
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "clocks" (1., 5.) v

(* --- Ivar --- *)

let test_ivar_read_blocks () =
  let t =
    Sim.run (fun () ->
        let iv = Sim.Ivar.create () in
        Sim.spawn (fun () ->
            Sim.delay 2.;
            Sim.Ivar.fill iv 99);
        let v = Sim.Ivar.read iv in
        (v, Sim.now ()))
  in
  Alcotest.(check (pair int (float 1e-9))) "value and time" (99, 2.) t

let test_ivar_double_fill_raises () =
  Sim.run (fun () ->
      let iv = Sim.Ivar.create () in
      Sim.Ivar.fill iv 1;
      (match Sim.Ivar.fill iv 2 with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ());
      Alcotest.(check bool) "try_fill" false (Sim.Ivar.try_fill iv 3))

let test_ivar_timeout_expires () =
  let r =
    Sim.run (fun () ->
        let iv = Sim.Ivar.create () in
        Sim.Ivar.read_timeout iv 1.0)
  in
  Alcotest.(check (option int)) "timed out" None r

let test_ivar_timeout_wins () =
  let r =
    Sim.run (fun () ->
        let iv = Sim.Ivar.create () in
        Sim.spawn (fun () ->
            Sim.delay 0.5;
            Sim.Ivar.fill iv 7);
        Sim.Ivar.read_timeout iv 1.0)
  in
  Alcotest.(check (option int)) "value" (Some 7) r

(* --- withdrawn timers --- *)

(* A timeout whose value won is withdrawn: its event never dispatches,
   the hook never sees it, and events_dispatched does not count it. *)
let test_withdrawn_timer_not_dispatched () =
  let times = ref [] in
  let r, dispatched =
    Sim.run
      ~on_dispatch:(fun d -> times := d.Sim.d_time :: !times)
      (fun () ->
        let iv = Sim.Ivar.create () in
        Sim.spawn (fun () ->
            Sim.delay 0.5;
            Sim.Ivar.fill iv 7);
        let r = Sim.Ivar.read_timeout iv 1.0 in
        Sim.delay 2.0;
        (r, Sim.events_dispatched ()))
  in
  Alcotest.(check (option int)) "value" (Some 7) r;
  (* main, child, child wake-up, main resumed by the fill, main's delay *)
  Alcotest.(check int) "dispatched" 5 dispatched;
  Alcotest.(check (list (float 0.))) "no timer at t=1" [ 0.; 0.; 0.5; 0.5; 2.5 ] (List.rev !times)

(* A handle outlives its timer when the timeout wins and the ivar is
   filled later; by then the cell carries a newer event, which the stale
   withdrawal must leave alone. *)
let test_stale_handle_spares_recycled_cell () =
  let r, fired =
    Sim.run (fun () ->
        let iv = Sim.Ivar.create () in
        let r = Sim.Ivar.read_timeout iv 1.0 in
        let fired = ref false in
        (* Freed cells are reused last-in first-out: this timer takes the
           cell the expired timeout (then main's wake-up) ran in. *)
        Sim.after 0.5 (fun () -> fired := true);
        Sim.Ivar.fill iv 3;
        Sim.delay 1.0;
        (r, !fired))
  in
  Alcotest.(check (option int)) "timed out" None r;
  Alcotest.(check bool) "newer event still fires" true fired

let test_recv_timeout_paths () =
  let times = ref [] in
  let got, expired, later =
    Sim.run
      ~on_dispatch:(fun d -> times := d.Sim.d_time :: !times)
      (fun () ->
        let mb = Sim.Mailbox.create () in
        Sim.spawn (fun () ->
            Sim.delay 0.5;
            Sim.Mailbox.send mb 1);
        let got = Sim.Mailbox.recv_timeout mb 1.0 in
        Sim.delay 1.0;
        let expired = Sim.Mailbox.recv_timeout mb 1.0 in
        Sim.Mailbox.send mb 2;
        (got, expired, Sim.Mailbox.try_recv mb))
  in
  Alcotest.(check (option int)) "send wins" (Some 1) got;
  Alcotest.(check (option int)) "timeout wins" None expired;
  Alcotest.(check (option int)) "later send queued" (Some 2) later;
  Alcotest.(check bool) "won timer withdrawn" false (List.mem 1.0 !times);
  Alcotest.(check bool) "lost timer fired" true (List.mem 2.5 !times)

(* Withdrawn cells still sit in the queue until their time; draining
   them must not hide a deadlock, and the clock ends where the no-op
   timer would have left it. *)
let test_deadlock_with_only_withdrawn_timers () =
  Alcotest.check_raises "deadlock"
    (Sim.Deadlock "main process blocked forever at t=10 with 1 spawned processes") (fun () ->
      Sim.run (fun () ->
          let iv = Sim.Ivar.create () in
          Sim.spawn (fun () ->
              Sim.delay 0.1;
              Sim.Ivar.fill iv ());
          ignore (Sim.Ivar.read_timeout iv 10.0);
          Sim.suspend (fun _resume -> ())))

(* --- Mailbox --- *)

let test_mailbox_fifo () =
  let r =
    Sim.run (fun () ->
        let mb = Sim.Mailbox.create () in
        Sim.Mailbox.send mb 1;
        Sim.Mailbox.send mb 2;
        Sim.Mailbox.send mb 3;
        let a = Sim.Mailbox.recv mb in
        let b = Sim.Mailbox.recv mb in
        let c = Sim.Mailbox.recv mb in
        [ a; b; c ])
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] r

let test_mailbox_blocking_recv () =
  let r =
    Sim.run (fun () ->
        let mb = Sim.Mailbox.create () in
        Sim.spawn (fun () ->
            Sim.delay 3.;
            Sim.Mailbox.send mb "hello");
        let v = Sim.Mailbox.recv mb in
        (v, Sim.now ()))
  in
  Alcotest.(check (pair string (float 1e-9))) "recv" ("hello", 3.) r

let test_mailbox_timeout_then_send_not_lost () =
  (* After a receive times out, a subsequent send must not be swallowed by
     the dead waiter. *)
  let r =
    Sim.run (fun () ->
        let mb = Sim.Mailbox.create () in
        let first = Sim.Mailbox.recv_timeout mb 1.0 in
        Sim.spawn (fun () ->
            Sim.delay 1.;
            Sim.Mailbox.send mb 5);
        let second = Sim.Mailbox.recv mb in
        (first, second))
  in
  Alcotest.(check (pair (option int) int)) "no loss" (None, 5) r

let test_mailbox_two_receivers_order () =
  let log = ref [] in
  Sim.run (fun () ->
      let mb = Sim.Mailbox.create () in
      Sim.spawn (fun () ->
          let v = Sim.Mailbox.recv mb in
          log := ("r1", v) :: !log);
      Sim.spawn (fun () ->
          let v = Sim.Mailbox.recv mb in
          log := ("r2", v) :: !log);
      Sim.delay 1.;
      Sim.Mailbox.send mb 10;
      Sim.Mailbox.send mb 20;
      Sim.delay 1.);
  Alcotest.(check (list (pair string int)))
    "oldest waiter first"
    [ ("r1", 10); ("r2", 20) ]
    (List.rev !log)

(* --- Resource --- *)

let test_resource_serialises () =
  (* Capacity 1: three 1-second jobs take 3 seconds. *)
  let t =
    Sim.run (fun () ->
        let r = Sim.Resource.create ~capacity:1 () in
        let job () = Sim.Resource.with_ r (fun () -> Sim.delay 1.) in
        Sim.fork_join [ job; job; job ];
        Sim.now ())
  in
  check_float "makespan" 3.0 t

let test_resource_parallelism () =
  let t =
    Sim.run (fun () ->
        let r = Sim.Resource.create ~capacity:3 () in
        let job () = Sim.Resource.with_ r (fun () -> Sim.delay 1.) in
        Sim.fork_join [ job; job; job ];
        Sim.now ())
  in
  check_float "makespan" 1.0 t

let test_resource_fifo_admission () =
  let log = ref [] in
  Sim.run (fun () ->
      let r = Sim.Resource.create ~capacity:1 () in
      Sim.Resource.acquire r;
      for i = 1 to 4 do
        Sim.spawn (fun () ->
            Sim.Resource.acquire r;
            log := i :: !log;
            Sim.delay 0.1;
            Sim.Resource.release r)
      done;
      Sim.delay 1.;
      Sim.Resource.release r;
      Sim.delay 10.);
  Alcotest.(check (list int)) "admission order" [ 1; 2; 3; 4 ] (List.rev !log)

let test_resource_counts () =
  Sim.run (fun () ->
      let r = Sim.Resource.create ~capacity:2 () in
      Sim.Resource.acquire r;
      Sim.Resource.acquire r;
      Sim.spawn (fun () -> Sim.Resource.acquire r);
      Sim.yield ();
      Alcotest.(check int) "in_use" 2 (Sim.Resource.in_use r);
      Alcotest.(check int) "waiting" 1 (Sim.Resource.waiting r);
      Sim.Resource.release r;
      Sim.yield ();
      Alcotest.(check int) "waiting after release" 0 (Sim.Resource.waiting r))

let test_resource_utilisation () =
  let u =
    Sim.run (fun () ->
        let r = Sim.Resource.create ~capacity:2 () in
        Sim.Resource.with_ r (fun () -> Sim.delay 1.);
        Sim.delay 1.;
        Sim.Resource.utilisation r)
  in
  (* 1 unit busy for 1s out of capacity 2 over 2s = 0.25 *)
  check_float "utilisation" 0.25 u

let test_fork_join_empty () = Sim.run (fun () -> Sim.fork_join [])

let test_every () =
  let count = ref 0 in
  (match
     Sim.run (fun () ->
         Sim.every ~period:1.0 (fun () ->
             incr count;
             !count < 5);
         Sim.delay 100.)
   with
  | () -> ()
  | exception _ -> ());
  Alcotest.(check int) "ticks" 5 !count

(* --- Event queue property tests --- *)

let mk_event ~time ~key ~seq =
  let ev = Sched_event.make () in
  Sched_event.set_time ev time;
  ev.Sched_event.key <- key;
  ev.Sched_event.seq <- seq;
  ev

(* The heap is the reference the timing wheel is checked against, so its
   whole ordering contract is pinned: time, then tie-break key, then
   sequence number. Coarse times on a subset force equal-time ties, and
   perturbed keys on a subset make the key decide them. *)
let heap_sorts =
  QCheck.Test.make ~name:"heap pops in (time, key, seq) order" ~count:200
    QCheck.(list (triple bool (float_bound_inclusive 1000.) bool))
    (fun evs ->
      let h = Event_heap.create () in
      List.iteri
        (fun seq (coarse, t, perturbed) ->
          let time = if coarse then Float.of_int (truncate (t /. 100.)) else t in
          let key = if perturbed then Rng.hash2 5 seq else 0 in
          Event_heap.add h (mk_event ~time ~key ~seq))
        evs;
      let rec drain acc =
        let e = Event_heap.pop h in
        if e == Sched_event.nil then List.rev acc
        else drain ((Sched_event.time e, e.Sched_event.key, e.Sched_event.seq) :: acc)
      in
      let out = drain [] in
      out = List.sort compare out && List.length out = List.length evs)

(* Raw timing-wheel vs heap agreement. Every add lands at an offset from
   the last popped time, drawn from one of the regimes below. The far
   ones cross the wheel's structural limits at the default 2^-23 s tick:
   level 2 ends 2^45 ticks (2^22 s, ~48 days) past the edge, beyond
   which events wait in the overflow heap, and [tick_of] clamps times
   past 4e18 ticks (~4.8e11 s) to one far tick index. *)
type region =
  | Same_instant
  | Burst (* on a global 2^-10 s grid, so adds collide *)
  | Near (* up to 10 ms *)
  | Heartbeat (* 0.05-0.45 s *)
  | Level2 (* 17-420 s *)
  | Overflow (* straddling the level-2 horizon, clustered near it *)
  | Clamped (* past the tick clamp, finite *)
  | Infinite

type wheel_op =
  | Add of { region : region; u : float; perturbed : bool; check : bool }
  | Pop of { limit : float option; check : bool }
  | Drain

let level2_horizon_s = 0x1p22
let clamp_s = 4.0e18 *. 0x1p-23

let time_of region u base =
  match region with
  | Same_instant -> base
  | Burst ->
      let q = 0x1p-10 in
      Float.max base ((Float.floor (base /. q) +. Float.of_int (1 + truncate (u *. 4.))) *. q)
  | Near -> base +. (u *. 0.01)
  | Heartbeat -> base +. 0.05 +. (u *. 0.4)
  | Level2 -> base +. 17. +. (u *. 403.)
  | Overflow -> base +. (level2_horizon_s *. (0.99 +. (u *. u *. u)))
  | Clamped -> base +. (clamp_s *. (1.05 +. (u *. 100.)))
  | Infinite -> infinity

let wheel_ops_gen =
  let open QCheck.Gen in
  let add regions =
    map3
      (fun region u (perturbed, check) -> Add { region; u; perturbed; check })
      (frequency regions) (float_bound_exclusive 1.)
      (pair (map (fun k -> k = 0) (int_bound 3)) bool)
  in
  let pop =
    map2
      (fun bounded (d, check) -> Pop { limit = (if bounded then Some d else None); check })
      bool
      (pair (float_bound_exclusive 0.5) bool)
  in
  let finite =
    [
      (15, return Same_instant);
      (20, return Burst);
      (25, return Near);
      (12, return Heartbeat);
      (10, return Level2);
      (10, return Overflow);
    ]
  in
  let far = (3, return Clamped) :: (1, return Infinite) :: finite in
  (* Once a clamped or infinite event pops, every later add lands past
     the clamp too, so those regimes only appear in a short tail. One
     add of each far regime is always present. *)
  let must region = Add { region; u = 0.5; perturbed = false; check = true } in
  map2
    (fun body tail -> body @ (must Overflow :: must Clamped :: must Infinite :: tail))
    (list_size (int_range 2000 4000) (frequency [ (50, add finite); (48, pop); (1, return Drain) ]))
    (list_size (int_range 50 300) (frequency [ (50, add far); (45, pop) ]))

let wheel_matches_heap =
  QCheck.Test.make ~name:"timing wheel pops exactly as the heap" ~count:30
    (QCheck.make ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops)) wheel_ops_gen)
    (fun ops ->
      let h = Event_heap.create () in
      let w = Timing_wheel.create () in
      let seq = ref 0 and base = ref 0. and ok = ref true in
      let beyond_level2 = ref 0 and beyond_clamp = ref 0 and infinite = ref 0 in
      let bits = Int64.bits_of_float in
      (* peek must agree bit for bit, infinity included *)
      let check () =
        if bits (Event_heap.peek_time h) <> bits (Timing_wheel.peek_time w) then ok := false
      in
      (* [limit] as [Sim.run ~until] passes it: nothing pops when the
         minimum lies beyond it. *)
      let pop limit =
        let eh = if Event_heap.peek_time h <= limit then Event_heap.pop h else Sched_event.nil in
        let ew = Timing_wheel.pop_until w limit in
        if eh == Sched_event.nil || ew == Sched_event.nil then begin
          if eh != ew then ok := false
        end
        else begin
          if
            eh.Sched_event.seq <> ew.Sched_event.seq
            || eh.Sched_event.key <> ew.Sched_event.key
            || bits (Sched_event.time eh) <> bits (Sched_event.time ew)
          then ok := false;
          base := Sched_event.time eh
        end;
        eh != Sched_event.nil
      in
      let step = function
        | Add { region; u; perturbed; check = c } ->
            incr seq;
            let time = time_of region u !base in
            if time -. !base >= level2_horizon_s then incr beyond_level2;
            if time >= clamp_s then incr beyond_clamp;
            if time = infinity then incr infinite;
            let key = if perturbed then Rng.hash2 11 !seq else 0 in
            Event_heap.add h (mk_event ~time ~key ~seq:!seq);
            Timing_wheel.add w (mk_event ~time ~key ~seq:!seq);
            if c then check ()
        | Pop { limit; check = c } ->
            ignore (pop (match limit with Some d -> !base +. d | None -> infinity));
            if c then check ()
        | Drain -> while pop infinity do () done
      in
      List.iter
        (fun op ->
          step op;
          if Event_heap.length h <> Timing_wheel.length w then ok := false)
        ops;
      step Drain;
      (* the inputs did cross the level-2 horizon and the tick clamp *)
      !ok && Timing_wheel.length w = 0 && !beyond_level2 > 0 && !beyond_clamp > 0 && !infinite > 0)

let rng_uniform_range =
  QCheck.Test.make ~name:"rng float stays in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let f = Rng.float rng in
        if f < 0. || f >= 1. then ok := false
      done;
      !ok)

let rng_int_range =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let rng_split_independent =
  QCheck.Test.make ~name:"rng split streams differ from parent" ~count:100 QCheck.small_int
    (fun seed ->
      let a = Rng.create seed in
      let b = Rng.split a in
      Rng.next_int64 a <> Rng.next_int64 b)

let rng_deterministic () =
  let a = Rng.create 1234 and b = Rng.create 1234 in
  for _ = 1 to 1000 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let sim_deterministic () =
  (* Two identical runs produce identical event interleavings. *)
  let trace () =
    let log = ref [] in
    Sim.run (fun () ->
        let rng = Rng.create 7 in
        let r = Sim.Resource.create ~capacity:2 () in
        for i = 1 to 20 do
          Sim.spawn (fun () ->
              Sim.delay (Rng.float rng);
              Sim.Resource.with_ r (fun () ->
                  Sim.delay (Rng.float rng);
                  log := (i, Sim.now ()) :: !log))
        done;
        Sim.delay 100.);
    !log
  in
  let t1 = trace () and t2 = trace () in
  Alcotest.(check bool) "identical traces" true (t1 = t2)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "leed_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "run returns" `Quick test_run_returns;
          Alcotest.test_case "delay advances clock" `Quick test_delay_advances_clock;
          Alcotest.test_case "zero delay keeps time" `Quick test_zero_delay_keeps_time;
          Alcotest.test_case "spawn ordering" `Quick test_spawn_ordering;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "until cuts run" `Quick test_until_cuts_run;
          Alcotest.test_case "stop" `Quick test_stop;
          Alcotest.test_case "nested runs" `Quick test_nested_runs;
          Alcotest.test_case "deterministic interleaving" `Quick sim_deterministic;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "read blocks until fill" `Quick test_ivar_read_blocks;
          Alcotest.test_case "double fill raises" `Quick test_ivar_double_fill_raises;
          Alcotest.test_case "timeout expires" `Quick test_ivar_timeout_expires;
          Alcotest.test_case "fill beats timeout" `Quick test_ivar_timeout_wins;
        ] );
      ( "timers",
        [
          Alcotest.test_case "withdrawn timer not dispatched" `Quick
            test_withdrawn_timer_not_dispatched;
          Alcotest.test_case "stale handle spares recycled cell" `Quick
            test_stale_handle_spares_recycled_cell;
          Alcotest.test_case "recv_timeout both paths" `Quick test_recv_timeout_paths;
          Alcotest.test_case "deadlock with only withdrawn timers" `Quick
            test_deadlock_with_only_withdrawn_timers;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocking recv" `Quick test_mailbox_blocking_recv;
          Alcotest.test_case "timeout does not lose sends" `Quick test_mailbox_timeout_then_send_not_lost;
          Alcotest.test_case "two receivers ordered" `Quick test_mailbox_two_receivers_order;
        ] );
      ( "resource",
        [
          Alcotest.test_case "serialises" `Quick test_resource_serialises;
          Alcotest.test_case "parallelism" `Quick test_resource_parallelism;
          Alcotest.test_case "fifo admission" `Quick test_resource_fifo_admission;
          Alcotest.test_case "counts" `Quick test_resource_counts;
          Alcotest.test_case "utilisation" `Quick test_resource_utilisation;
          Alcotest.test_case "fork_join empty" `Quick test_fork_join_empty;
          Alcotest.test_case "every" `Quick test_every;
        ] );
      qsuite "properties"
        [ heap_sorts; wheel_matches_heap; rng_uniform_range; rng_int_range; rng_split_independent ];
      ("rng", [ Alcotest.test_case "deterministic" `Quick rng_deterministic ]);
    ]

(* Conformance suite for the KV_BACKEND service boundary: every system
   (LEED, FAWN, KVell) must behave identically when driven purely through
   Backend.t — get-after-put, overwrite and delete visibility, replicated
   object accounting, live observability counters, and bit-deterministic
   metrics when the same seeded workload replays in a fresh simulation. *)

open Leed_sim
open Leed_core
open Leed_workload
open Leed_experiments

let key = Workload.key_of_id
let nkeys = 60
let ndel = 10
let vsize = 240

(* Small instances of each system: correctness, not statistics. All are
   built with R=3, so accounting must show 3 copies per live key. *)
let small_setup = function
  | "leed" -> Exp_common.make_leed ~nclients:2 ()
  | "fawn" -> Exp_common.make_fawn ~nnodes:4 ~nclients:2 ()
  | "kvell" -> Exp_common.make_kvell ~nclients:2 ~object_size:256 ()
  | name -> invalid_arg name

let conformance name () =
  Sim.run (fun () ->
      let setup = small_setup name in
      let b = setup.Exp_common.backend in
      Alcotest.(check string) "selector name" name (Backend.name b);
      Backend.start b;
      let c = List.hd setup.Exp_common.clients in
      for id = 0 to nkeys - 1 do
        Backend.put c (key id) (Workload.value_for ~id ~version:1 ~size:vsize)
      done;
      (* Get-after-put returns the written payload. *)
      for id = 0 to nkeys - 1 do
        match Backend.get c (key id) with
        | Some v ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: value %d matches" name id)
              true
              (Workload.value_matches ~id ~version:1 v)
        | None -> Alcotest.failf "%s: key %d missing after put" name id
      done;
      (* Overwrite visibility: the newest version wins. *)
      Backend.put c (key 0) (Workload.value_for ~id:0 ~version:2 ~size:vsize);
      (match Backend.get c (key 0) with
      | Some v ->
          Alcotest.(check bool) "overwrite visible" true (Workload.value_matches ~id:0 ~version:2 v)
      | None -> Alcotest.fail "overwritten key missing");
      (* Delete visibility and replicated accounting. *)
      for id = 0 to ndel - 1 do
        Backend.del c (key id)
      done;
      for id = 0 to ndel - 1 do
        Alcotest.(check (option reject)) (Printf.sprintf "%s: %d deleted" name id) None
          (Backend.get c (key id))
      done;
      (match Backend.get c (key ndel) with
      | Some _ -> ()
      | None -> Alcotest.fail "undeleted key vanished");
      Alcotest.(check int)
        (name ^ ": R=3 accounting")
        (3 * (nkeys - ndel))
        (Backend.total_objects b);
      (* Observability is live on every backend. *)
      let ctrs = Backend.counters b in
      Alcotest.(check bool) "nvme writes seen" true (ctrs.Backend.nvme_writes > 0);
      Alcotest.(check bool) "watts positive" true (Backend.watts b ~util:1.0 > 0.);
      Alcotest.(check bool) "device busy observed" true (ctrs.Backend.device_busy > 0.);
      Alcotest.(check bool)
        "idle power <= active power" true
        (Backend.watts b ~util:0.0 <= Backend.watts b ~util:1.0);
      Backend.stop b)

(* The same seeded workload in two fresh simulation worlds must produce
   identical metrics — op counts, histogram shape, counter deltas. *)
let deterministic_metrics name () =
  let run () =
    Sim.run (fun () ->
        let setup = small_setup name in
        Exp_common.preload setup ~nkeys:200 ~value_size:vsize;
        let gen =
          Workload.generator ~object_size:256 (Workload.ycsb_a ()) ~nkeys:200 (Rng.create 42)
        in
        let m =
          Exp_common.measure_closed ~label:name ~setup ~clients:8 ~duration:0.03 ~gen ()
        in
        (m, Backend.total_objects setup.Exp_common.backend))
  in
  let m1, o1 = run () in
  let m2, o2 = run () in
  Alcotest.(check int) "ops" m1.Backend.ops m2.Backend.ops;
  Alcotest.(check (float 0.)) "throughput" m1.Backend.throughput m2.Backend.throughput;
  Alcotest.(check (float 0.)) "avg latency" m1.Backend.avg_lat m2.Backend.avg_lat;
  Alcotest.(check (float 0.)) "p99" m1.Backend.p99 m2.Backend.p99;
  Alcotest.(check int) "nvme accesses" m1.Backend.nvme_accesses m2.Backend.nvme_accesses;
  Alcotest.(check bool) "window counters identical" true (m1.Backend.counters = m2.Backend.counters);
  Alcotest.(check (float 0.)) "watts" m1.Backend.watts m2.Backend.watts;
  Alcotest.(check int) "total objects" o1 o2

(* [measure]'s counters are exactly the delta of snapshots taken around
   the same run, except the hot-set gauge, which keeps its end value. A
   cache-armed LEED cluster under skewed reads makes every kind of
   counter move. *)
let measure_is_snapshot_delta () =
  Sim.run (fun () ->
      let cache =
        Netcache.enabled
          {
            Netcache.default_config with
            Netcache.instances = 2;
            capacity = 64;
            groups = 64;
            window = 0.005;
            warm_up = 10;
            warm_down = 5;
            hot_up = 30;
            hot_down = 15;
          }
      in
      let setup = Exp_common.make_leed ~nclients:2 ~cache () in
      let b = setup.Exp_common.backend in
      Exp_common.preload setup ~nkeys:400 ~value_size:vsize;
      let gen =
        Workload.generator ~object_size:256
          (Workload.read_write ~read:0.95 ~theta:0.99)
          ~nkeys:400 (Rng.create 7)
      in
      let window label = Exp_common.measure_closed ~label ~setup ~clients:16 ~duration:0.03 ~gen () in
      (* a first window heats the cache, so the gauge is live at [before] *)
      ignore (window "warm-up");
      let before = Backend.counters b in
      let m = window "delta" in
      let after = Backend.counters b in
      let delta = Backend.diff_counters ~after ~before in
      let c = m.Backend.counters in
      Alcotest.(check bool) "counters = diff_counters of the snapshots" true (c = delta);
      Alcotest.(check int) "nvme accesses" (Backend.nvme_accesses delta) m.Backend.nvme_accesses;
      Alcotest.(check bool) "cache hit in the window" true (c.Backend.cache_hits > 0);
      Alcotest.(check bool) "groups hot at both ends" true
        (before.Backend.cache_hot_keys > 0 && after.Backend.cache_hot_keys > 0);
      Alcotest.(check int) "hot keys keep the after value" after.Backend.cache_hot_keys
        c.Backend.cache_hot_keys)

let () =
  Alcotest.run "leed_backend"
    [
      ( "conformance",
        List.map
          (fun n -> Alcotest.test_case n `Quick (conformance n))
          Exp_common.backend_names );
      ( "determinism",
        List.map
          (fun n -> Alcotest.test_case n `Quick (deterministic_metrics n))
          Exp_common.backend_names );
      ( "measure",
        [ Alcotest.test_case "counters are the snapshot delta" `Quick measure_is_snapshot_delta ] );
    ]

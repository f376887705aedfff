(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §3 for the experiment index), plus Bechamel
   microbenchmarks of the core data structures.

   Usage:
     bench/main.exe                 run everything
     bench/main.exe fig7 table3     run selected experiments
     bench/main.exe fast            run everything with shorter windows
     bench/main.exe micro           only the microbenchmarks
     bench/main.exe ycsb [backend]  YCSB-B through the unified KV_BACKEND
                                    path (leed/fawn/kvell; default all)
     bench/main.exe chaos [seed..]  seeded fault-injection runs (crash-restarts,
                                    partition, SSD degradation) under load, plus
                                    the fail-slow naive-vs-hedged tail comparison;
                                    writes BENCH_chaos.json
     bench/main.exe race [target..] simultaneous-event race detection over the
                                    registered targets (default all)
     bench/main.exe cache           in-network cache sweep: Zipf theta x
                                    {cache-off+CRRS, cache-only, cache+CRRS}
                                    plus a flash-crowd scenario; writes
                                    BENCH_cache.json
     bench/main.exe cache-validate [file]
                                    check BENCH_cache.json's shape (CI gate)

   The ycsb mode takes --jbofs N to scale the cluster. The ycsb and race
   modes additionally write machine-readable BENCH_ycsb.json /
   BENCH_race.json (throughput, p99, events/sec, wall time) for trend
   tracking across commits. *)

open Leed_experiments

module Json = Leed_trace.Trace.Json

(* Integers go into the JSON tree as exact numbers. *)
let int i = Json.Num (float_of_int i)

let experiments =
  [
    ("table1", Table1.run);
    ("fig1", Fig1.run);
    ("table3", Table3.run);
    ("fig5", Fig5.run);
    ("fig6", Fig6.run);
    ("fig7", Fig7.run);
    ("fig8", Fig8.run);
    ("fig9", Fig9.run);
    ("fig10", Fig10.run);
    ("fig11", Fig11.run);
    ("fig12", Fig12.run);
    ("fig13", Fig13.run);
    ("fig14", Fig14.run);
  ]

(* --- unified backend comparison through the KV_BACKEND boundary --- *)

(* Per-backend saturation sizing, as in Figure 5. *)
let ycsb_sizing = function
  | "fawn" -> (2_000, 40, 0.5)
  | "kvell" -> (4_000, 320, 0.08)
  | _ -> (4_000, 128, 0.1)

let ycsb ?jbofs backends =
  let open Leed_sim in
  let open Leed_workload in
  let module Backend = Leed_core.Backend in
  (match jbofs with
  | None -> print_endline "== YCSB-B (1KB) through the unified backend path =="
  | Some n -> Printf.printf "== YCSB-B (1KB) through the unified backend path, %d JBOFs ==\n" n);
  let rows =
    List.map
      (fun name ->
        (* Set-up (cluster build, preload, generator) and the measure
           window are timed apart: only the window is the throughput the
           events/s figure describes. *)
        let wall0 = Unix.gettimeofday () in
        let m, events, window_events, setup_wall, window_wall =
          Sim.run (fun () ->
              let nkeys, workers, window = ycsb_sizing name in
              let setup = Exp_common.setup_of_name ~nclients:4 ?nnodes:jbofs name in
              Exp_common.preload setup ~nkeys ~value_size:1008;
              let gen =
                Workload.generator ~object_size:1024 (Workload.ycsb_b ()) ~nkeys (Rng.create 9)
              in
              let events0 = Sim.events_dispatched () in
              let window0 = Unix.gettimeofday () in
              let m =
                Exp_common.measure_closed ~label:name ~setup ~clients:workers
                  ~duration:(Exp_common.dur window) ~gen ()
              in
              let window_wall = Unix.gettimeofday () -. window0 in
              let events = Sim.events_dispatched () in
              (m, events, events - events0, window0 -. wall0, window_wall))
        in
        let wall = Unix.gettimeofday () -. wall0 in
        Exp_common.report_metrics m;
        Printf.printf "  %-18s set-up %.2f s wall, window %.2f s wall (%.0f events/s)\n" name
          setup_wall window_wall
          (if window_wall > 0. then float_of_int window_events /. window_wall else 0.);
        Json.Obj
          [
            ("backend", Json.Str name);
            ("ops", int m.Backend.ops);
            ("sim_duration_s", Json.Num m.Backend.duration);
            ("throughput_ops_s", Json.Num m.Backend.throughput);
            ("avg_lat_s", Json.Num m.Backend.avg_lat);
            ("p99_s", Json.Num m.Backend.p99);
            ("p999_s", Json.Num m.Backend.p999);
            ("nvme_accesses", int m.Backend.nvme_accesses);
            ("watts", Json.Num m.Backend.watts);
            ("events", int events);
            ("window_events", int window_events);
            ("wall_s", Json.Num wall);
            ("setup_wall_s", Json.Num setup_wall);
            ("window_wall_s", Json.Num window_wall);
            ( "events_per_s",
              Json.Num (if window_wall > 0. then float_of_int window_events /. window_wall else 0.) );
          ])
      backends
  in
  Json.write_file "BENCH_ycsb.json"
    (Json.Obj
       ([ ("bench", Json.Str "ycsb"); ("workload", Json.Str "YCSB-B"); ("object_size", int 1024) ]
       @ (match jbofs with None -> [] | Some n -> [ ("jbofs", int n) ])
       @ [ ("results", Json.Arr rows) ]));
  Printf.printf "wrote BENCH_ycsb.json (%d backends)\n" (List.length rows)

(* --- seeded chaos runs through the fault-injection subsystem --- *)

let chaos ~fast seeds =
  let open Leed_fault.Fault in
  let seeds = if seeds = [] then [ 42 ] else List.map int_of_string seeds in
  let seed_rows =
    List.map
      (fun seed ->
        Printf.printf "== chaos seed %d ==\n%!" seed;
        let wall0 = Unix.gettimeofday () in
        let r = Chaos.run { Chaos.default_config with Chaos.seed } in
        let wall = Unix.gettimeofday () -. wall0 in
        Format.printf "%a@." Chaos.pp_report r;
        if not r.Chaos.ok then exit 1;
        Json.Obj
          [
            ("seed", int seed);
            ("ops", int r.Chaos.ops);
            ("failed_ops", int r.Chaos.failed_ops);
            ("max_outage_s", Json.Num r.Chaos.max_outage);
            ("digest", Json.Str r.Chaos.digest);
            ("ok", Json.Bool r.Chaos.ok);
            ("wall_s", Json.Num wall);
          ])
      seeds
  in
  (* Gray-failure comparison: the fig-failslow triplet (fault-free /
     naive / hedged over one 10x fail-slow schedule), emitted with the
     tail ratios the robustness claim is judged on. *)
  print_endline "== chaos fail-slow: naive vs hedged ==";
  let pts = Fig_failslow.points ~fast () in
  let point_row (p : Fig_failslow.point) =
    let r = p.Fig_failslow.report in
    let module C = Chaos in
    let hedge_rate =
      if r.C.reads > 0 then float_of_int r.C.hedges /. float_of_int r.C.reads else 0.
    in
    Printf.printf
      "  %-18s get p99 %7.0fus p99.9 %7.0fus  hedges %d (%.1f%% of reads, %d wins)  sheds %d  \
       slow events %d  detection %s\n"
      p.Fig_failslow.label (1e6 *. r.C.get_p99) (1e6 *. r.C.get_p999) r.C.hedges
      (100. *. hedge_rate) r.C.hedge_wins r.C.sheds r.C.slow_events
      (if r.C.detection_latency < 0. then "-" else Printf.sprintf "%.2fs" r.C.detection_latency);
    Json.Obj
      [
        ("label", Json.Str p.Fig_failslow.label);
        ("get_p99_s", Json.Num r.C.get_p99);
        ("get_p999_s", Json.Num r.C.get_p999);
        ("hedges", int r.C.hedges);
        ("hedge_wins", int r.C.hedge_wins);
        ("hedge_rate", Json.Num hedge_rate);
        ("sheds", int r.C.sheds);
        ("slow_events", int r.C.slow_events);
        ("detection_latency_s", Json.Num r.C.detection_latency);
        ("ok", Json.Bool r.C.ok);
      ]
  in
  let point_rows = List.map point_row pts in
  let ratios =
    match pts with
    | [ clean; naive; hedged ] ->
        let p999 (p : Fig_failslow.point) = p.Fig_failslow.report.Chaos.get_p999 in
        let r (p : Fig_failslow.point) = if p999 clean > 0. then p999 p /. p999 clean else 0. in
        Printf.printf "  p99.9 vs fault-free: naive %.1fx, hedged %.1fx\n" (r naive) (r hedged);
        [ ("naive_p999_x", Json.Num (r naive)); ("hedged_p999_x", Json.Num (r hedged)) ]
    | _ -> []
  in
  Json.write_file "BENCH_chaos.json"
    (Json.Obj
       [
         ("bench", Json.Str "chaos");
         ("fast", Json.Bool fast);
         ("seeds", Json.Arr seed_rows);
         ("failslow", Json.Obj (ratios @ [ ("points", Json.Arr point_rows) ]));
       ]);
  Printf.printf "wrote BENCH_chaos.json (%d seeds, %d fail-slow points)\n" (List.length seed_rows)
    (List.length pts);
  if List.exists (fun (p : Fig_failslow.point) -> not p.Fig_failslow.report.Chaos.ok) pts then begin
    prerr_endline "bench chaos: fail-slow run violated a chaos invariant";
    exit 1
  end

(* --- replication protocol comparison: CRRS vs ABD on the same seeds --- *)

let repl ~fast seeds =
  let open Leed_fault.Fault in
  let module R = Leed_core.Replication in
  let seeds = if seeds = [] then [ 42 ] else List.map int_of_string seeds in
  let base =
    if fast then
      { Chaos.default_config with Chaos.nnodes = 3; nkeys = 96; nclients = 3; duration = 4.0 }
    else Chaos.default_config
  in
  (* Same seeds, same schedules, same invariants — only the replication
     protocol changes. The row set is the head-to-head the seam exists
     for: hops/write and recovery favour one design, quorum round-trips
     and availability-under-crash the other. *)
  let runs =
    List.concat_map
      (fun proto ->
        List.map
          (fun seed ->
            Printf.printf "== repl %s seed %d ==\n%!" (R.proto_to_string proto) seed;
            let wall0 = Unix.gettimeofday () in
            let r = Chaos.run { base with Chaos.seed; proto } in
            let wall = Unix.gettimeofday () -. wall0 in
            if not r.Chaos.ok then
              Printf.printf "  FAILED: %s\n" (String.concat "," r.Chaos.failed_invariants);
            (proto, seed, r, wall))
          seeds)
      R.all_protos
  in
  let throughput (r : Chaos.report) = float_of_int r.Chaos.ops /. base.Chaos.duration in
  let write_hops (r : Chaos.report) =
    if r.Chaos.writes > 0 then float_of_int r.Chaos.write_applies /. float_of_int r.Chaos.writes
    else 0.
  in
  List.iter
    (fun (proto, seed, r, _) ->
      let module C = Chaos in
      Printf.printf
        "  %-4s seed %-3d  %7.0f ops/s  get p99.9 %6.0fus  put p99.9 %6.0fus  hops/write %.2f  \
         recovery %5.2fs  quorum rounds %6d  writebacks %3d  lin %d/%d  %s\n"
        (R.proto_to_string proto) seed (throughput r) (1e6 *. r.C.get_p999)
        (1e6 *. r.C.put_p999) (write_hops r) r.C.max_outage r.C.quorum_rounds r.C.writebacks
        r.C.lin_violations r.C.lin_checked_keys
        (if r.C.ok then "ok" else "VIOLATED"))
    runs;
  let row (proto, seed, (r : Chaos.report), wall) =
    let module C = Chaos in
    Json.Obj
      [
        ("proto", Json.Str (R.proto_to_string proto));
        ("seed", int seed);
        ("ops", int r.C.ops);
        ("failed_ops", int r.C.failed_ops);
        ("throughput_ops_s", Json.Num (throughput r));
        ("get_p99_s", Json.Num r.C.get_p99);
        ("get_p999_s", Json.Num r.C.get_p999);
        ("put_p99_s", Json.Num r.C.put_p99);
        ("put_p999_s", Json.Num r.C.put_p999);
        ("write_hops", Json.Num (write_hops r));
        ("recovery_s", Json.Num r.C.max_outage);
        ("quorum_rounds", int r.C.quorum_rounds);
        ("writebacks", int r.C.writebacks);
        ("lin_checked_keys", int r.C.lin_checked_keys);
        ("lin_violations", int r.C.lin_violations);
        ("failed_invariants", Json.Arr (List.map (fun s -> Json.Str s) r.C.failed_invariants));
        ("ok", Json.Bool r.C.ok);
        ("digest", Json.Str r.C.digest);
        ("wall_s", Json.Num wall);
      ]
  in
  Json.write_file "BENCH_repl.json"
    (Json.Obj
       [
         ("bench", Json.Str "repl");
         ("fast", Json.Bool fast);
         ("duration_s", Json.Num base.Chaos.duration);
         ("nnodes", int base.Chaos.nnodes);
         ("r", int base.Chaos.r);
         ("runs", Json.Arr (List.map row runs));
       ]);
  Printf.printf "wrote BENCH_repl.json (%d protocols x %d seeds)\n" (List.length R.all_protos)
    (List.length seeds);
  if List.exists (fun (_, _, (r : Chaos.report), _) -> not r.Chaos.ok) runs then begin
    prerr_endline "bench repl: a run violated a chaos invariant";
    exit 1
  end

(* --- simultaneous-event race detection (leed race, benchmarked) --- *)

let race ~fast names =
  let module Race = Leed_race.Race in
  let targets =
    match names with
    | [] -> Race.targets ~fast ()
    | names -> List.map (Race.find_target ~fast) names
  in
  let runs = 8 in
  Printf.printf "== race detection: %d targets, %d perturbed orderings each ==\n%!"
    (List.length targets) runs;
  let rows =
    List.map
      (fun (t : Race.target) ->
        let wall0 = Unix.gettimeofday () in
        let r = Race.check ~runs t in
        let wall = Unix.gettimeofday () -. wall0 in
        Format.printf "%a@." Race.pp_result r;
        (* (runs + 1) full executions of ~events each, plus any
           attribution bisection — events_per_s is the detector's
           aggregate dispatch rate, the race-mode BENCH trend metric. *)
        let total_events = r.Race.events * (runs + 1) in
        ( r,
          Json.Obj
            [
              ("target", Json.Str r.Race.target);
              ("passed", Json.Bool (Race.passed r));
              ("expect_divergence", Json.Bool r.Race.expect_divergence);
              ("runs", int r.Race.runs);
              ("divergences", int (List.length r.Race.divergences));
              ("base_digest", Json.Str r.Race.base_digest);
              ("events", int r.Race.events);
              ("wall_s", Json.Num wall);
              ( "events_per_s",
                Json.Num (if wall > 0. then float_of_int total_events /. wall else 0.) );
            ] ))
      targets
  in
  Json.write_file "BENCH_race.json"
    (Json.Obj
       [
         ("bench", Json.Str "race");
         ("runs", int runs);
         ("fast", Json.Bool fast);
         ("results", Json.Arr (List.map snd rows));
       ]);
  Printf.printf "wrote BENCH_race.json (%d targets)\n" (List.length rows);
  if List.exists (fun (r, _) -> not (Leed_race.Race.passed r)) rows then begin
    prerr_endline "bench race: determinism contract violated";
    exit 1
  end

(* --- in-network cache sweep (fig7/fig8-style; DESIGN.md §15) ---

   The LETHE comparison: under growing Zipf skew and under a flash crowd,
   how does switch-resident caching compare with — and compose with —
   CRRS read-spreading? Three configs per traffic point:

     crrs        cache off, CRRS replica reads on  (the PR-baseline)
     cache       cache on,  CRRS replica reads off (head-only reads)
     cache+crrs  cache on,  CRRS replica reads on  (the composition)

   Read-heavy (95/5) so the cache has something to serve while the 5%
   writes keep exercising invalidation. *)

let cache_configs = [ ("crrs", false, true); ("cache", true, false); ("cache+crrs", true, true) ]
(* Zipf.create (the YCSB sampler) supports theta in (0,1); the beyond-1
   "extreme skew" regime LETHE targets is covered by the flash-crowd
   scenario instead, which concentrates half the picks on 16 keys. *)
let cache_thetas = [ 0.6; 0.9; 0.99 ]

let cache_bench ~fast () =
  let open Leed_sim in
  let open Leed_workload in
  let module Backend = Leed_core.Backend in
  let module Netcache = Leed_core.Netcache in
  print_endline "== In-network cache: Zipf sweep + flash crowd (95/5 read/write, 1KB) ==";
  let nkeys = 4_000 and workers = 128 and window = 0.1 in
  (* Sized for this sweep's traffic (~1M gets/s over 4000 keys): 256
     hash groups see ~40 gets per 10 ms classifier window on average, so
     the warm threshold at 2x average and hot at 6x select the upper
     tail instead of saturating every group; the short window fits
     several rotations even into the scaled-down fast measure window,
     and 4x256 slots hold roughly the keys behind the warm quantile. *)
  let cache_cfg =
    Netcache.enabled
      {
        Netcache.default_config with
        Netcache.instances = 4;
        capacity = 256;
        groups = 256;
        window = 0.01;
        warm_up = 80;
        warm_down = 40;
        hot_up = 240;
        hot_down = 120;
      }
  in
  let cell ~scenario ~theta ~label ~cached ~crrs =
    let m =
      Sim.run (fun () ->
          let setup =
            Exp_common.make_leed ~nclients:4 ~crrs
              ?cache:(if cached then Some cache_cfg else None)
              ()
          in
          Exp_common.preload setup ~nkeys ~value_size:1008;
          let flash_crowd =
            if scenario = "flash" then
              Some
                {
                  Workload.fc_start = Sim.now () +. Exp_common.dur 0.02;
                  fc_duration = Exp_common.dur 0.05;
                  fc_frac = 0.5;
                  fc_keys = 16;
                }
            else None
          in
          let gen =
            Workload.generator ~object_size:1024 ?flash_crowd
              (Workload.read_write ~read:0.95 ~theta)
              ~nkeys (Rng.create 9)
          in
          Exp_common.measure_closed
            ~label:(Printf.sprintf "%s/%s θ=%.1f" scenario label theta)
            ~setup ~clients:workers ~duration:(Exp_common.dur window) ~gen ())
    in
    Exp_common.report_metrics m;
    let c = m.Backend.counters in
    let lookups = c.Backend.cache_hits + c.Backend.cache_misses in
    let hit_rate =
      if lookups > 0 then float_of_int c.Backend.cache_hits /. float_of_int lookups else 0.
    in
    Json.Obj
      [
        ("scenario", Json.Str scenario);
        ("config", Json.Str label);
        ("theta", Json.Num theta);
        ("ops", int m.Backend.ops);
        ("throughput_ops_s", Json.Num m.Backend.throughput);
        ("p99_s", Json.Num m.Backend.p99);
        ("p999_s", Json.Num m.Backend.p999);
        ("cache_hits", int c.Backend.cache_hits);
        ("cache_misses", int c.Backend.cache_misses);
        ("hit_rate", Json.Num hit_rate);
        ("cache_invalidations", int c.Backend.cache_invalidations);
        ("cache_sprays", int c.Backend.cache_sprays);
        ("cache_hot_keys", int c.Backend.cache_hot_keys);
        ("nvme_accesses", int m.Backend.nvme_accesses);
        ("watts", Json.Num m.Backend.watts);
        ("queries_per_joule", Json.Num m.Backend.queries_per_joule);
      ]
  in
  let sweep =
    List.concat_map
      (fun theta ->
        Printf.printf "-- zipf θ=%.1f --\n%!" theta;
        List.map
          (fun (label, cached, crrs) -> cell ~scenario:"zipf" ~theta ~label ~cached ~crrs)
          cache_configs)
      cache_thetas
  in
  (* Flash crowd on moderate base skew: the spike, not the static tail,
     is what concentrates the load here. *)
  print_endline "-- flash crowd (50% of picks on 16 keys) --";
  let flash =
    List.map
      (fun (label, cached, crrs) -> cell ~scenario:"flash" ~theta:0.9 ~label ~cached ~crrs)
      cache_configs
  in
  Json.write_file "BENCH_cache.json"
    (Json.Obj
       [
         ("bench", Json.Str "cache");
         ("fast", Json.Bool fast);
         ("workload", Json.Str "95/5 read/write, 1KB");
         ("nkeys", int nkeys);
         ("thetas", Json.Arr (List.map (fun t -> Json.Num t) cache_thetas));
         ("results", Json.Arr (sweep @ flash));
       ]);
  Printf.printf "wrote BENCH_cache.json (%d rows)\n" (List.length sweep + List.length flash)

(* Shape check for the CI gate: parse BENCH_cache.json back and check every
   (scenario x config) cell is present, all metrics finite, and the
   armed configs actually hit in the cache somewhere. *)
let cache_validate file =
  let fail msg =
    Printf.eprintf "%s: %s\n" file msg;
    exit 1
  in
  let contents =
    match In_channel.with_open_bin file In_channel.input_all with
    | s -> s
    | exception Sys_error e -> fail e
  in
  match Json.parse contents with
  | Error e -> fail ("parse error: " ^ e)
  | Ok (Json.Obj fields) ->
      let str_field name = function
        | Json.Obj fs -> (match List.assoc_opt name fs with Some (Json.Str s) -> Some s | _ -> None)
        | _ -> None
      in
      let num_field name = function
        | Json.Obj fs -> (
            match List.assoc_opt name fs with Some (Json.Num n) -> Some n | _ -> None)
        | _ -> None
      in
      if List.assoc_opt "bench" fields <> Some (Json.Str "cache") then
        fail "bench field is not \"cache\"";
      let rows =
        match List.assoc_opt "results" fields with
        | Some (Json.Arr rows) -> rows
        | _ -> fail "missing results array"
      in
      if rows = [] then fail "empty results array";
      let configs = List.map (fun (l, _, _) -> l) cache_configs in
      let required =
        [ "theta"; "ops"; "throughput_ops_s"; "p99_s"; "p999_s"; "cache_hits"; "cache_misses";
          "hit_rate"; "cache_invalidations"; "cache_sprays"; "cache_hot_keys"; "nvme_accesses";
          "watts"; "queries_per_joule" ]
      in
      List.iteri
        (fun i row ->
          (match str_field "scenario" row with
          | Some ("zipf" | "flash") -> ()
          | Some s -> fail (Printf.sprintf "row %d: unknown scenario %S" i s)
          | None -> fail (Printf.sprintf "row %d: missing scenario" i));
          (match str_field "config" row with
          | Some c when List.mem c configs -> ()
          | Some c -> fail (Printf.sprintf "row %d: unknown config %S" i c)
          | None -> fail (Printf.sprintf "row %d: missing config" i));
          List.iter
            (fun f ->
              match num_field f row with
              | Some n when Float.is_finite n && n >= 0. -> ()
              | Some _ -> fail (Printf.sprintf "row %d: non-finite or negative %s" i f)
              | None -> fail (Printf.sprintf "row %d: missing numeric field %s" i f))
            required;
          if num_field "throughput_ops_s" row = Some 0. then
            fail (Printf.sprintf "row %d: zero throughput" i);
          (* cache-off rows must not report cache traffic *)
          if str_field "config" row = Some "crrs" && num_field "cache_hits" row <> Some 0. then
            fail (Printf.sprintf "row %d: cache-off config reports cache hits" i))
        rows;
      List.iter
        (fun scenario ->
          List.iter
            (fun c ->
              if
                not
                  (List.exists
                     (fun row ->
                       str_field "scenario" row = Some scenario && str_field "config" row = Some c)
                     rows)
              then fail (Printf.sprintf "no %s rows for config %S" scenario c))
            configs)
        [ "zipf"; "flash" ];
      if
        not
          (List.exists
             (fun row ->
               str_field "config" row <> Some "crrs"
               && match num_field "cache_hits" row with Some h -> h > 0. | None -> false)
             rows)
      then fail "no armed config ever hit in the cache";
      Printf.printf "%s: ok (%d rows, %d configs)\n" file (List.length rows)
        (List.length configs)
  | Ok _ -> fail "top level is not an object"

(* --- Bechamel microbenchmarks of the core data structures --- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let key i = Leed_workload.Workload.key_of_id i in
  let bucket =
    let items =
      List.init 14 (fun i -> { Leed_core.Codec.key = key i; vlen = 1008; voff = i * 1044; vdev = 0 })
    in
    {
      Leed_core.Codec.bindex = 42;
      chain_len = 1;
      chain_pos = 0;
      seg_id = 7;
      log_head = 0;
      log_tail = 0;
      items;
    }
  in
  let encoded = Leed_core.Codec.encode_bucket bucket in
  let btree =
    let t = Leed_baselines.Btree.create ~dummy:0 () in
    for i = 0 to 9_999 do
      Leed_baselines.Btree.insert t (key i) i
    done;
    t
  in
  let ring =
    let r = Leed_core.Ring.create () in
    for n = 0 to 9 do
      for v = 0 to 7 do
        let e = Leed_core.Ring.add r { Leed_core.Ring.node = n; vidx = v } in
        e.Leed_core.Ring.vstate <- Leed_core.Ring.Running
      done
    done;
    r
  in
  let zipf = Leed_workload.Zipf.create ~theta:0.99 ~n:1_000_000 (Leed_sim.Rng.create 1) in
  let hist = Leed_stats.Histogram.create () in
  let rng = Leed_sim.Rng.create 2 in
  let i = ref 0 in
  let tests =
    Test.make_grouped ~name:"core" ~fmt:"%s.%s"
      [
        Test.make ~name:"codec.encode_bucket"
          (Staged.stage (fun () -> ignore (Leed_core.Codec.encode_bucket bucket)));
        Test.make ~name:"codec.decode_bucket"
          (Staged.stage (fun () -> ignore (Leed_core.Codec.decode_bucket encoded)));
        Test.make ~name:"codec.hash_key"
          (Staged.stage (fun () -> ignore (Leed_core.Codec.hash_key "k000000000012345")));
        Test.make ~name:"btree.find-10k"
          (Staged.stage (fun () ->
               incr i;
               ignore (Leed_baselines.Btree.find btree (key (!i mod 10_000)))));
        Test.make ~name:"btree.insert-10k"
          (Staged.stage (fun () ->
               incr i;
               Leed_baselines.Btree.insert btree (key (!i mod 10_000)) !i));
        Test.make ~name:"ring.chain-r3"
          (Staged.stage (fun () ->
               incr i;
               ignore (Leed_core.Ring.chain ring ~r:3 (key (!i mod 50_000)))));
        Test.make ~name:"zipf.sample-1M"
          (Staged.stage (fun () -> ignore (Leed_workload.Zipf.next_scrambled zipf)));
        Test.make ~name:"histogram.record"
          (Staged.stage (fun () -> Leed_stats.Histogram.record hist (Leed_sim.Rng.float rng)));
      ]
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  print_newline ();
  print_endline "== Microbenchmarks (monotonic clock, OLS ns/op) ==";
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns = match Analyze.OLS.estimates est with Some [ v ] -> v | _ -> nan in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  List.iter (fun (name, ns) -> Printf.printf "  %-28s %10.1f ns/op\n" name ns) rows

(* Pull "--flag N" out of a raw argument list. *)
let extract_int_opt flag args =
  let rec go acc = function
    | f :: v :: rest when f = flag -> (int_of_string_opt v, List.rev_append acc rest)
    | x :: rest -> go (x :: acc) rest
    | [] -> (None, List.rev acc)
  in
  go [] args

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let fast = List.mem "fast" args || List.mem "--fast" args in
  if fast then Exp_common.time_scale := 0.3;
  let selected = List.filter (fun a -> a <> "fast" && a <> "--fast") args in
  match selected with
  | "ycsb" :: rest ->
      let jbofs, rest = extract_int_opt "--jbofs" rest in
      ycsb ?jbofs (if rest = [] then Exp_common.backend_names else rest)
  | "chaos" :: rest -> chaos ~fast rest
  | "repl" :: rest -> repl ~fast rest
  | "race" :: rest -> race ~fast rest
  | "cache" :: _ -> cache_bench ~fast ()
  | "cache-validate" :: rest ->
      cache_validate (match rest with f :: _ -> f | [] -> "BENCH_cache.json")
  | _ ->
  let micro_only = selected = [ "micro" ] in
  let run_micro = selected = [] || List.mem "micro" selected in
  let to_run =
    if micro_only then []
    else
      match List.filter (fun a -> a <> "micro") selected with
      | [] -> experiments
      | names ->
          List.filter_map
            (fun n ->
              match List.assoc_opt n experiments with
              | Some f -> Some (n, f)
              | None ->
                  Printf.eprintf "unknown experiment %s\n" n;
                  None)
            names
  in
  List.iter
    (fun (name, f) ->
      let t0 = Unix.gettimeofday () in
      Printf.printf "\n######## %s ########\n%!" name;
      (try f ()
       with e ->
         Printf.printf "!! %s failed: %s\n%!" name (Printexc.to_string e));
      Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t0))
    to_run;
  if run_micro then micro ()

(* The LEED benchmark: one command that runs a named workload through the
   public APIs, checks every result, and prints each metric by name with
   its unit. See README.md in this directory for the metric definitions,
   the layer map and why each workload exists.

     leedbench.exe --workload <ycsb-b|ycsb-a-full|chaos-cache>
                   --seed <n> --seconds <s> --trace <0|1>

   Everything runs in one process on one domain. Two clocks appear:
   simulated (virtual) time, which the model predicts and which repeats
   bit for bit for a seed, and host CPU time, which is what simulating
   costs. Names starting with [sim_] / [sim.] are simulated unless they
   say host. *)

open Perfbench_lib
open Catalog
open Leed_sim
open Leed_core
open Leed_workload
module Chaos = Leed_fault.Fault.Chaos
module Schedule = Leed_fault.Fault.Schedule
module Exp = Leed_experiments.Exp_common
module Blockdev = Leed_blockdev.Blockdev
module Netsim = Leed_netsim.Netsim
module Platform = Leed_platform.Platform


(* A per-layer value a workload cannot observe: [Chaos.run] keeps its
   cluster private, so store counters and the cache's populate/evict
   counters are out of reach there. *)
let unobservable = -1.

(* --- shared helpers --- *)

let peak_rss_mb () =
  let from_proc =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> None
    | ic ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> None
          | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.)
          | _ -> scan ()
        in
        let r = scan () in
        close_in ic;
        r
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let pct_or_unobservable sorted q = Option.value (Metric.percentile sorted q) ~default:unobservable
let per x n = if n = 0 then 0. else x /. float_of_int n

let time_ns n f =
  let t0 = Monotonic_clock.now () in
  for i = 0 to n - 1 do
    ignore (Sys.opaque_identity (f i))
  done;
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. float_of_int n

(* Synchronous calls the ROADMAP names as host-cost suspects, timed on
   keys from the workload's own key space. *)
let micro ~nnodes ~keys ~vlen =
  let nkeys = Array.length keys in
  let cap = Codec.items_capacity ~key_size:Workload.key_size in
  let rec fitting n =
    let items =
      List.init n (fun i -> { Codec.key = keys.(i mod nkeys); vlen; voff = i * (vlen + 16); vdev = 0 })
    in
    let b =
      {
        Codec.bindex = Codec.bucket_index_of_key keys.(0);
        chain_len = 1;
        chain_pos = 0;
        seg_id = 0;
        log_head = 0;
        log_tail = 0;
        items;
      }
    in
    if Codec.bucket_fits b || n = 1 then b else fitting (n - 1)
  in
  let bucket = fitting cap in
  let encoded = Codec.encode_bucket bucket in
  let encode_ns = time_ns 20_000 (fun _ -> Codec.encode_bucket bucket) in
  let decode_ns = time_ns 20_000 (fun _ -> Codec.decode_bucket encoded) in
  let ring =
    Sim.run (fun () ->
        let c =
          Cluster.create ~config:{ Cluster.default_config with Cluster.nnodes } ()
        in
        Ring.copy (Control.ring (Cluster.control c)))
  in
  let chain_ns = time_ns 100_000 (fun i -> Ring.chain ring ~r:3 keys.(i mod nkeys)) in
  [
    ("codec.decode_bucket_ns", decode_ns);
    ("codec.encode_bucket_ns", encode_ns);
    ("ring.chain_ns", chain_ns);
  ]

let trace_layers (h : Layer_trace.t) ~ops ~window_s =
  let open Layer_trace in
  let sorted s = Metric.sorted s in
  let flight = sorted h.flight in
  let groups_total = Array.fold_left ( + ) 0 h.group_events in
  [
    ("netsim.msgs_per_op", per (float_of_int (count h "net.msgs")) ops);
    ("netsim.bytes_per_op", per (float_of_int h.msg_bytes) ops);
    ("netsim.flight_us_p50", pct_or_unobservable flight 0.5);
    ("netsim.flight_us_p99", pct_or_unobservable flight 0.99);
    ("node.shipped_read_ratio", Metric.ratio (count h "node.shipped") (count h "node.get"));
    ("node.get_us", per h.node_get_us (count h "node.get"));
    ("node.write_us", per h.node_write_us (count h "node.write"));
    ("engine.queue_wait_us_p50", pct_or_unobservable (sorted h.queue_wait) 0.5);
    ("engine.queue_wait_us_p99", pct_or_unobservable (sorted h.queue_wait) 0.99);
    ("engine.exec_us_p50", pct_or_unobservable (sorted h.exec) 0.5);
    ("blockdev.read_us_p50", pct_or_unobservable (sorted h.dev_read) 0.5);
    ("blockdev.write_us_p50", pct_or_unobservable (sorted h.dev_write) 0.5);
    ("control.copy_arcs", float_of_int (count h "control.copy.arc"));
    ("control.copy_us", h.copy_us);
    ("control.probe_rounds_per_s", float_of_int (count h "control.probe_round") /. window_s);
  ]
  @ List.map (fun c -> ("trace." ^ c ^ ".events_per_op", per (float_of_int (cat_events h c)) ops)) trace_cats
  @ List.map (fun c -> ("trace." ^ c ^ ".busy_us_per_op", per (cat_busy h c) ops)) busy_cats
  @ [
      ("trace.engine.wait_us_per_op", per (Metric.total h.queue_wait) ops);
      ("trace.net.flight_us_per_op", per (Metric.total h.flight) ops);
    ]
  @ List.concat
      (List.mapi
         (fun i g ->
           [
             ("host." ^ g ^ ".ns_per_event", per h.group_ns.(i) h.group_events.(i));
             ("host." ^ g ^ ".event_share", Metric.ratio h.group_events.(i) groups_total);
           ])
         (Array.to_list groups))

(* --- YCSB workloads: LEED cluster, closed loop of 128 simulated
   workers over 4 front-end clients --- *)

type ycsb = {
  mix : Workload.mix;
  nkeys : int;
  ssd_mb : int;  (** scaled capacity of each SSD *)
  window : float;  (** simulated seconds measured per sub-run *)
  subruns : int;  (** sub-runs pooled per benchmark run, each with its own seed *)
}

let workers = 128
let nclients = 4
let object_size = 1024

(* The paper's headline point, sized like [bench ycsb leed]. Four pooled
   sub-runs give ~11k PUTs, enough for a supported PUT p99.9. *)
let ycsb_b () = { mix = Workload.ycsb_b (); nkeys = 4_000; ssd_mb = 512; window = 0.055; subruns = 4 }

(* 32 MB SSDs: small enough that the compactor cycles (~46 runs) inside
   a 0.1 s window. Its stalls set the tail latencies, so three sub-runs
   are pooled to keep their seed-to-seed spread down. Longer windows are
   no steadier: past ~0.1 s the logs fill faster than the compactor
   drains them and the tails grow with the window. *)
let ycsb_a_full () = { mix = Workload.ycsb_a (); nkeys = 8_000; ssd_mb = 32; window = 0.1; subruns = 3 }

(* Slices per sub-run window (0.55 ms or 1 ms of virtual time each). *)
let ycsb_slices = 100

let subrun_seed seed i = if i = 0 then seed else Rng.hash2 seed i

(* Cumulative cluster counters, read through public stats functions. *)
type snap = {
  s_events : int;
  s_spawns : int;
  s_minor : float;
  s_promoted : float;
  s_counters : Backend.counters;
  s_executed : int;
  s_deferred : int;
  s_denied : int;
  s_swapped : int;
  s_get_count : int;
  s_get_nvme : int;
  s_get_cpu : float;
  s_put_count : int;
  s_put_nvme : int;
  s_put_cpu : float;
  s_compactions : int;
  s_merged : int;
  s_dev_reads : int;
  s_dev_writes : int;
  s_dev_bytes_written : int;
  s_dev_busy : float;
  s_write_applies : int;
  s_version_queries : int;
  s_failures : int;
  s_joins : int;
  s_dropped : int;
  s_cache : Netcache.stats option;
}

let stores cluster =
  List.concat_map
    (fun n -> Array.to_list (Array.map Engine.store (Engine.partitions (Node.engine n))))
    (Cluster.nodes cluster)

let devices cluster = List.concat_map (fun n -> Array.to_list (Engine.devices (Node.engine n))) (Cluster.nodes cluster)

let snapshot cluster =
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let sumf f l = List.fold_left (fun a x -> a +. f x) 0. l in
  let nodes = Cluster.nodes cluster in
  let ssds = List.concat_map (fun n -> Array.to_list (Engine.ssds (Node.engine n))) nodes in
  let ssd f = sum (fun s -> f (Engine.ssd_stats s)) ssds in
  let stores = stores cluster in
  let op kind f = sum (fun st -> f (Store.stats st kind)) stores in
  let opf kind f = sumf (fun st -> f (Store.stats st kind)) stores in
  let devs = devices cluster in
  let dev f = sum (fun d -> f (Blockdev.stats d)) devs in
  let node f = sum (fun n -> f (Node.stats n)) nodes in
  let control = Control.stats (Cluster.control cluster) in
  let gc = Gc.quick_stat () in
  {
    s_events = Sim.events_dispatched ();
    s_spawns = Sim.processes_spawned ();
    s_minor = gc.Gc.minor_words;
    s_promoted = gc.Gc.promoted_words;
    s_counters = Leed_backend.counters cluster;
    s_executed = ssd (fun s -> s.Engine.executed);
    s_deferred = ssd (fun s -> s.Engine.deferred);
    s_denied = ssd (fun s -> s.Engine.denied);
    s_swapped = ssd (fun s -> s.Engine.swapped_out);
    s_get_count = op Store.Get (fun s -> s.Store.count);
    s_get_nvme = op Store.Get (fun s -> s.Store.nvme_accesses);
    s_get_cpu = opf Store.Get (fun s -> Leed_stats.Summary.sum s.Store.cpu_time);
    s_put_count = op Store.Put (fun s -> s.Store.count);
    s_put_nvme = op Store.Put (fun s -> s.Store.nvme_accesses);
    s_put_cpu = opf Store.Put (fun s -> Leed_stats.Summary.sum s.Store.cpu_time);
    s_compactions = sum (fun st -> (Store.counters st).Store.compaction_runs) stores;
    s_merged = sum (fun st -> (Store.counters st).Store.merged) stores;
    s_dev_reads = dev (fun s -> s.Blockdev.n_reads);
    s_dev_writes = dev (fun s -> s.Blockdev.n_writes);
    s_dev_bytes_written = dev (fun s -> s.Blockdev.bytes_written);
    s_dev_busy = sumf Blockdev.busy_seconds devs;
    s_write_applies = node (fun s -> s.Node.n_write_applies);
    s_version_queries = node (fun s -> s.Node.n_version_queries);
    s_failures = control.Control.n_failures_handled;
    s_joins = control.Control.n_joins;
    s_dropped = (Netsim.fabric_stats (Cluster.fabric cluster)).Netsim.dropped;
    s_cache = Option.map Netcache.stats (Cluster.cache cluster);
  }

type ycsb_run = {
  setup_cpu : float;
  setup_refs : float list;  (** reference runs timed right after the set-up *)
  win : Host.window;  (** the measure window's host-time slices *)
  window_s : float;  (** simulated length of the measure window *)
  events : int;
  outcome : Outcome.t;
  gets : int;  (** GETs attempted *)
  puts : int;
  get_lat : Metric.samples;  (** completed GETs, simulated seconds *)
  put_lat : Metric.samples;
  max_gap : float;  (** longest simulated gap between two successful completions *)
  watts : float;
  layers : (string * float) list;
  fingerprint : string;
}

let fingerprint fields (samples : Metric.samples list) =
  let b = Buffer.create 4096 in
  List.iter (fun f -> Buffer.add_string b f; Buffer.add_char b '|') fields;
  List.iter
    (fun (s : Metric.samples) ->
      for i = 0 to s.Metric.len - 1 do
        Buffer.add_string b (Printf.sprintf "%h;" s.Metric.data.(i))
      done)
    samples;
  Digest.to_hex (Digest.string (Buffer.contents b))

let ycsb_layers ~before ~after ~(r : ycsb_run) cluster =
  let ops = r.outcome.Outcome.attempted in
  let acked_puts = Metric.count r.put_lat in
  let d f = f after - f before in
  let df f = f after -. f before in
  let dc f = f after.s_counters - f before.s_counters in
  let cache f = match (after.s_cache, before.s_cache) with Some a, Some b -> f a - f b | _ -> 0 in
  let stores = stores cluster in
  let ndev = List.length (devices cluster) in
  [
    ("sim.events_per_op", per (float_of_int r.events) ops);
    ("sim.spawns_per_op", per (float_of_int (d (fun s -> s.s_spawns))) ops);
    ("sim.max_pending_events", float_of_int r.win.Host.max_pending);
    ("sim.minor_words_per_op", per (df (fun s -> s.s_minor)) ops);
    ("sim.promoted_words_per_op", per (df (fun s -> s.s_promoted)) ops);
    ("sim.host_ns_per_event", Host.cost_per_event [ r.win ] *. 1e9);
    ("client.retries_per_op", per (float_of_int (dc (fun c -> c.Backend.retries))) ops);
    ("client.nacks_per_op", per (float_of_int (dc (fun c -> c.Backend.nacks))) ops);
    ( "client.backoff_us_per_op",
      per ((after.s_counters.Backend.backoff_time -. before.s_counters.Backend.backoff_time) *. 1e6) ops );
    ("client.hedges_per_get", per (float_of_int (dc (fun c -> c.Backend.hedges))) r.gets);
    ("client.error_rate", Outcome.error_rate r.outcome);
    ("client.get_samples", float_of_int (Metric.count r.get_lat));
    ("client.put_samples", float_of_int acked_puts);
    ("netsim.dropped", float_of_int (d (fun s -> s.s_dropped)));
    ("netcache.hit_ratio", Metric.ratio (cache (fun c -> c.Netcache.hits)) r.gets);
    ("netcache.misses_per_get", Metric.ratio (cache (fun c -> c.Netcache.misses)) r.gets);
    ("netcache.invalidations_per_put", Metric.ratio (cache (fun c -> c.Netcache.invalidations)) r.puts);
    ("netcache.sprays", float_of_int (cache (fun c -> c.Netcache.sprays)));
    ("netcache.populates", float_of_int (cache (fun c -> c.Netcache.populates)));
    ("netcache.evictions", float_of_int (cache (fun c -> c.Netcache.evictions)));
    ("node.write_applies_per_put", Metric.ratio (d (fun s -> s.s_write_applies)) acked_puts);
    ("node.version_queries_per_get", Metric.ratio (d (fun s -> s.s_version_queries)) r.gets);
    ("engine.deferred_ratio", Metric.ratio (d (fun s -> s.s_deferred)) (d (fun s -> s.s_executed)));
    ("engine.denied_per_op", Metric.ratio (d (fun s -> s.s_denied)) ops);
    ("engine.swap_ratio", Metric.ratio (d (fun s -> s.s_swapped)) (d (fun s -> s.s_put_count)));
    ("store.nvme_per_get", Metric.ratio (d (fun s -> s.s_get_nvme)) (d (fun s -> s.s_get_count)));
    ("store.nvme_per_put", Metric.ratio (d (fun s -> s.s_put_nvme)) (d (fun s -> s.s_put_count)));
    ("store.cpu_us_per_get", per (df (fun s -> s.s_get_cpu) *. 1e6) (d (fun s -> s.s_get_count)));
    ("store.cpu_us_per_put", per (df (fun s -> s.s_put_cpu) *. 1e6) (d (fun s -> s.s_put_count)));
    ("store.compaction_runs", float_of_int (d (fun s -> s.s_compactions)));
    ("store.merged_segments", float_of_int (d (fun s -> s.s_merged)));
    ( "store.index_bytes_per_object",
      per (List.fold_left (fun a st -> a +. Store.index_bytes_per_object st) 0. stores) (List.length stores) );
    ("blockdev.reads_per_op", per (float_of_int (d (fun s -> s.s_dev_reads))) ops);
    ("blockdev.writes_per_op", per (float_of_int (d (fun s -> s.s_dev_writes))) ops);
    ( "blockdev.write_amp",
      per (float_of_int (d (fun s -> s.s_dev_bytes_written))) (acked_puts * object_size) );
    ("blockdev.busy_frac", df (fun s -> s.s_dev_busy) /. (r.window_s *. float_of_int ndev));
    ("control.failures_handled", float_of_int (d (fun s -> s.s_failures)));
    ("control.joins", float_of_int (d (fun s -> s.s_joins)));
    ("control.recovery_s", r.max_gap);
    ("fault.lin_checked_keys", 0.);
  ]

let ycsb_subrun spec ~seed ?hook () =
  let win = Host.window ~len:spec.window ~slices:ycsb_slices in
  let on_dispatch d =
    Option.iter (fun h -> Layer_trace.on_dispatch h d) hook;
    if Host.on_dispatch win then Option.iter Layer_trace.skip_host hook
  in
  Sim.run ~on_dispatch (fun () ->
      let c0 = Host.cpu () in
      let platform = Exp.leed_platform ~ssd_capacity:(spec.ssd_mb * 1024 * 1024) () in
      let cluster = Exp.make_leed_cluster ~platform () in
      let setup = Exp.setup_of_cluster ~nclients cluster in
      Exp.preload setup ~nkeys:spec.nkeys ~value_size:(object_size - Workload.key_size);
      let setup_cpu = Host.cpu () -. c0 in
      let setup_refs = Host.reference_runs () in
      let gen = Workload.generator ~object_size spec.mix ~nkeys:spec.nkeys (Rng.create seed) in
      let clients = Array.of_list setup.Exp.clients in
      let outcome = Outcome.create () in
      let get_lat = Metric.samples () and put_lat = Metric.samples () in
      let gets = ref 0 and puts = ref 0 in
      let t0 = Sim.now () in
      Option.iter (fun h -> Layer_trace.set_window h ~lo_s:t0 ~len_s:spec.window) hook;
      let last_ok = ref t0 and max_gap = ref 0. in
      let ok () =
        let now = Sim.now () in
        let gap = now -. !last_ok in
        if gap > !max_gap then max_gap := gap;
        last_ok := now
      in
      let read client key =
        let id = Workload.id_of_key key in
        incr gets;
        let start = Sim.now () in
        match Outcome.attempt outcome (fun () -> Backend.get client key) with
        | None -> ()
        | Some v -> (
            Metric.add get_lat (Sim.now () -. start);
            match Payload.check ~id ~max_version:(Workload.current_version gen id) v with
            | Ok () -> ok ()
            | Error msg -> Outcome.wrong outcome msg)
      in
      let write client key value =
        incr puts;
        let start = Sim.now () in
        match Outcome.attempt outcome (fun () -> Backend.put client key value) with
        | None -> ()
        | Some () ->
            Metric.add put_lat (Sim.now () -. start);
            ok ()
      in
      let next_client = ref 0 in
      let stop_at = t0 +. spec.window in
      let worker () =
        while not (Sim.reached stop_at) do
          let op = Workload.next gen in
          let client = clients.(!next_client mod Array.length clients) in
          incr next_client;
          match op with
          | Workload.Read key -> read client key
          | Workload.Update (key, value) | Workload.Insert (key, value) -> write client key value
          | Workload.Read_modify_write (key, value) ->
              read client key;
              write client key value
        done
      in
      let before = snapshot cluster in
      Host.start win ~at:t0;
      Sim.fork_join_named (List.init workers (fun w -> (Some (Printf.sprintf "worker%d" w), worker)));
      let after = snapshot cluster in
      let window_s = Sim.now () -. t0 in
      let delta = Backend.diff_counters ~after:after.s_counters ~before:before.s_counters in
      let util = Float.min 1.0 (delta.Backend.device_busy /. window_s) in
      let events = after.s_events - before.s_events in
      let r =
        {
          setup_cpu;
          setup_refs;
          win;
          window_s;
          events;
          outcome;
          gets = !gets;
          puts = !puts;
          get_lat;
          put_lat;
          max_gap = !max_gap;
          watts = Leed_backend.watts cluster ~util;
          layers = [];
          fingerprint =
            fingerprint
              [
                string_of_int outcome.Outcome.attempted;
                string_of_int outcome.Outcome.refused;
                string_of_int outcome.Outcome.wrong;
                string_of_int events;
                Printf.sprintf "%h" !max_gap;
                Printf.sprintf "%h" window_s;
                string_of_int (Backend.nvme_accesses delta);
                string_of_int (after.s_compactions - before.s_compactions);
              ]
              [ get_lat; put_lat ];
        }
      in
      { r with layers = ycsb_layers ~before ~after ~r cluster })

(* --- chaos-cache: Fault.Chaos.run under its default config, cache on,
   CRRS --- *)

let chaos_schedule_seed = 42

(* The fault schedule is fixed: the one seed 42 draws (an SSD brown-out,
   two crash-restarts, a partition), without its link-loss event.
   [--seed] drives the clients' key and read/write choices. A schedule
   per seed would make every run a different fault scenario. Link loss
   is left out because its drops come from a per-seed random stream and
   each drop stalls one of only four closed-loop workers for an RPC
   timeout plus backoff: with it, simulated throughput swung by a third
   between seeds, so the spread measured the loss draws, not the
   program. *)
let chaos_config seed =
  let d = Chaos.default_config in
  let schedule =
    List.filter
      (fun e -> match e.Schedule.fault with Schedule.Link_loss _ -> false | _ -> true)
      (Schedule.random ~seed:chaos_schedule_seed ~nnodes:d.Chaos.nnodes ~duration:d.Chaos.duration ())
  in
  { d with Chaos.seed; cache = true; proto = Replication.Crrs; schedule = Some schedule }

(* Slices of the chaos load window: 50 ms of virtual time each. *)
let chaos_slices = 120

let is_chaos_worker = Layer_trace.starts_with "chaos:w"

type chaos_run = { report : Chaos.report; win : Host.window }

(* One [Chaos.run], its load window opened from the dispatch hook at the
   first event of a chaos worker. Returns the run (unless [setup_only],
   which stops the simulation there) and the CPU time spent before the
   window opened: the set-up. *)
let chaos_once ?(setup_only = false) ?hook seed =
  let cfg = chaos_config seed in
  let win = Host.window ~len:cfg.Chaos.duration ~slices:chaos_slices in
  let on_dispatch (d : Sim.dispatch) =
    Option.iter (fun h -> Layer_trace.on_dispatch h d) hook;
    if win.Host.opened = None then begin
      if is_chaos_worker d.d_label then begin
        Host.start win ~at:d.d_time;
        Option.iter (fun h -> Layer_trace.set_window h ~lo_s:d.d_time ~len_s:cfg.Chaos.duration) hook;
        if setup_only then Sim.stop ()
      end
    end
    else if Host.on_dispatch win then Option.iter Layer_trace.skip_host hook
  in
  let c0 = Host.cpu () in
  let run =
    match Chaos.run ~on_dispatch cfg with
    | report -> Some { report; win }
    | exception Sim.Main_incomplete when setup_only && win.Host.opened <> None -> None
  in
  (run, match win.Host.opened with Some m -> m.Host.m_cpu -. c0 | None -> nan)

let window_events win =
  let o, c = Host.bounds win in
  c.Host.m_events - o.Host.m_events

let chaos_fingerprint (r : Chaos.report) = r.Chaos.digest ^ "/" ^ r.Chaos.state_digest

let chaos_layers (run : chaos_run) =
  let r = run.report in
  let o, c = Host.bounds run.win in
  let ops = r.Chaos.ops in
  [
    ("sim.events_per_op", per (float_of_int (window_events run.win)) ops);
    ("sim.spawns_per_op", per (float_of_int (c.Host.m_spawns - o.Host.m_spawns)) ops);
    ("sim.max_pending_events", float_of_int run.win.Host.max_pending);
    ("sim.minor_words_per_op", per (c.Host.m_minor -. o.Host.m_minor) ops);
    ("sim.promoted_words_per_op", per (c.Host.m_promoted -. o.Host.m_promoted) ops);
    ("sim.host_ns_per_event", Host.cost_per_event [ run.win ] *. 1e9);
    ("workload.next_ns", unobservable);
    ("client.retries_per_op", Metric.ratio r.Chaos.retries ops);
    ("client.nacks_per_op", Metric.ratio r.Chaos.nacks ops);
    ("client.backoff_us_per_op", per (r.Chaos.backoff_time *. 1e6) ops);
    ("client.hedges_per_get", Metric.ratio r.Chaos.hedges r.Chaos.reads);
    ("client.error_rate", Metric.ratio r.Chaos.failed_ops ops);
    ("netsim.dropped", float_of_int r.Chaos.msgs_dropped);
    ("netcache.hit_ratio", Metric.ratio r.Chaos.cache_hits r.Chaos.reads);
    ("netcache.misses_per_get", Metric.ratio r.Chaos.cache_misses r.Chaos.reads);
    ("netcache.invalidations_per_put", Metric.ratio r.Chaos.cache_invalidations r.Chaos.writes);
    ("netcache.sprays", float_of_int r.Chaos.cache_sprays);
    ("netcache.populates", unobservable);
    ("netcache.evictions", unobservable);
    ("node.write_applies_per_put", Metric.ratio r.Chaos.write_applies r.Chaos.writes);
    ("store.nvme_per_get", unobservable);
    ("store.nvme_per_put", unobservable);
    ("store.cpu_us_per_get", unobservable);
    ("store.cpu_us_per_put", unobservable);
    ("store.compaction_runs", unobservable);
    ("store.merged_segments", unobservable);
    ("store.index_bytes_per_object", unobservable);
    ("control.failures_handled", float_of_int r.Chaos.failures_handled);
    ("control.joins", float_of_int r.Chaos.joins);
    ("control.recovery_s", r.Chaos.max_outage);
    ("fault.lin_checked_keys", float_of_int r.Chaos.lin_checked_keys);
  ]

(* Chaos per-layer values that only the trace can give when the cluster
   is out of reach. *)
let chaos_trace_layers (h : Layer_trace.t) (r : Chaos.report) ~window_s =
  let open Layer_trace in
  let ops = r.Chaos.ops in
  let ndev = Chaos.default_config.Chaos.nnodes * Platform.smartnic_jbof.Platform.ssd_count in
  let gets = Metric.count h.client_get in
  [
    ("client.get_samples", float_of_int gets);
    ("client.put_samples", float_of_int (Metric.count h.client_put));
    ("node.version_queries_per_get", Metric.ratio (count h "node.version_query") gets);
    ("engine.deferred_ratio", Metric.ratio (count h "engine.deferred") (count h "engine.cmds"));
    ("engine.denied_per_op", Metric.ratio (count h "engine.tok.deny") ops);
    ("engine.swap_ratio", Metric.ratio (count h "engine.swap.redirect") (count h "engine.puts"));
    ("blockdev.reads_per_op", Metric.ratio (Metric.count h.dev_read) ops);
    ("blockdev.writes_per_op", Metric.ratio (Metric.count h.dev_write) ops);
    ( "blockdev.write_amp",
      per (float_of_int h.dev_bytes_written) (r.Chaos.writes * Chaos.default_config.Chaos.object_size) );
    ("blockdev.busy_frac", (Metric.total h.dev_read +. Metric.total h.dev_write) /. 1e6 /. (window_s *. float_of_int ndev));
  ]

(* --- running a workload --- *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let workloads = [ "ycsb-b"; "ycsb-a-full"; "chaos-cache" ]

let usage () =
  prerr_endline
    "usage: leedbench.exe --workload <ycsb-b|ycsb-a-full|chaos-cache> --seed <n> --seconds <s> --trace <0|1>";
  exit 2

let parse_args argv =
  let rec go acc = function
    | [] -> acc
    | "--workload" :: w :: rest when List.mem w workloads -> go { acc with workload = w } rest
    | "--seed" :: s :: rest -> (
        match int_of_string_opt s with Some seed -> go { acc with seed } rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some seconds when seconds > 0. -> go { acc with seconds } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { acc with trace = t = "1" } rest
    | _ -> usage ()
  in
  let a = go { workload = ""; seed = 0; seconds = 10.; trace = false } (List.tl (Array.to_list argv)) in
  if a.workload = "" then usage ();
  a

let say fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

(* The determinism gate: a simulated outcome that differs between two
   runs of one seed fails the whole run. *)
let same what a b =
  if a <> b then begin
    say "determinism: %s differs between two runs of the same seed" what;
    false
  end
  else true

let latency_metrics ~get ~put ~scale =
  let g = Metric.sorted get and p = Metric.sorted put in
  let require name sorted q =
    match Metric.percentile sorted q with
    | Some v -> (name, v *. scale)
    | None ->
        failwith
          (Printf.sprintf "%s: %d samples do not support this percentile" name (Array.length sorted))
  in
  [
    require "sim_get_p50_us" g 0.5;
    require "sim_get_p99_us" g 0.99;
    require "sim_get_p999_us" g 0.999;
    require "sim_put_p50_us" p 0.5;
    require "sim_put_p99_us" p 0.99;
    require "sim_put_p999_us" p 0.999;
  ]

type result = { correct : bool; attempted : int; failed : int; values : (string * float) list }

let ops_per_host_s ~ops ~events windows =
  float_of_int ops /. (float_of_int events *. Host.cost_per_event windows)

let whole_window_rate ~ops win =
  let o, c = Host.bounds win in
  float_of_int ops /. (c.Host.m_cpu -. o.Host.m_cpu)


let tracing_overhead ~traced ~plain =
  (Host.cost_per_event [ traced ] /. Host.cost_per_event [ plain ]) -. 1.

let ycsb_bench spec (a : args) =
  let seeds = List.init spec.subruns (subrun_seed a.seed) in
  let started = Host.cpu () in
  if not a.trace then begin
    let runs = List.map (fun seed -> ycsb_subrun spec ~seed ()) seeds in
    (* Replay the sub-runs, in order, until the run has measured for
       [--seconds]: each replay is another host-time sample and must
       reproduce its original exactly. *)
    let rec replay acc i =
      if Host.cpu () -. started >= a.seconds then List.rev acc
      else begin
        let k = i mod spec.subruns in
        let r = ycsb_subrun spec ~seed:(List.nth seeds k) () in
        let ok = same "a replayed sub-run" r.fingerprint (List.nth runs k).fingerprint in
        replay ((r, ok) :: acc) (i + 1)
      end
    in
    let replays = replay [] 0 in
    let deterministic = List.for_all snd replays in
    let all = runs @ List.map fst replays in
    let outcome = Outcome.merge (List.map (fun r -> r.outcome) runs) in
    let ops = outcome.Outcome.attempted in
    let window = List.fold_left (fun a r -> a +. r.window_s) 0. runs in
    let kqps = float_of_int ops /. window /. 1e3 in
    let watts = Metric.median (List.map (fun r -> r.watts) runs) in
    say "%s: %d sub-runs + %d replays, %d ops, %d refused, %d wrong, %.1f KQPS simulated"
      a.workload spec.subruns (List.length replays) ops outcome.Outcome.refused outcome.Outcome.wrong kqps;
    let events = List.fold_left (fun a r -> a + r.events) 0 runs in
    let windows = List.map (fun (r : ycsb_run) -> r.win) all in
    say "host ops/s %.0f at reference speed (reference run %.3f ms here); whole windows: %s"
      (ops_per_host_s ~ops ~events windows) (Host.reference_time windows *. 1e3)
      (String.concat " "
         (List.map (fun r -> Printf.sprintf "%.0f" (whole_window_rate ~ops:r.outcome.Outcome.attempted r.win)) all));
    Option.iter (fun m -> say "first wrong read: %s" m) outcome.Outcome.first_wrong;
    {
      correct = deterministic && outcome.Outcome.wrong = 0 && outcome.Outcome.refused = 0;
      attempted = ops;
      failed = Outcome.failed outcome;
      values =
        [
          ("sim_ops_per_host_s", ops_per_host_s ~ops ~events windows);
          ("setup_s", Host.setup_time (List.map (fun r -> (r.setup_cpu, r.setup_refs)) all));
          ("peak_rss_mb", peak_rss_mb ());
          ("sim_kqps", kqps);
          ("sim_kq_per_joule", kqps /. watts);
        ]
        @ latency_metrics
            ~get:(Metric.concat (List.map (fun r -> r.get_lat) runs))
            ~put:(Metric.concat (List.map (fun r -> r.put_lat) runs))
            ~scale:1e6;
    }
  end
  else begin
    let seed = List.hd seeds in
    let plain = ycsb_subrun spec ~seed () in
    let h = Layer_trace.create () in
    Layer_trace.start ();
    let traced = ycsb_subrun spec ~seed ~hook:h () in
    Layer_trace.finish h;
    let deterministic = same "the traced run" traced.fingerprint plain.fingerprint in
    let ops = plain.outcome.Outcome.attempted in
    let keys = Array.init (min spec.nkeys 4096) Workload.key_of_id in
    let gen = Workload.generator ~object_size spec.mix ~nkeys:spec.nkeys (Rng.create seed) in
    let values =
      plain.layers
      @ trace_layers h ~ops ~window_s:plain.window_s
      @ micro ~nnodes:Cluster.default_config.Cluster.nnodes ~keys
          ~vlen:(object_size - Workload.key_size)
      @ [
          ("workload.next_ns", time_ns 100_000 (fun _ -> Workload.next gen));
          ("trace.overhead", tracing_overhead ~traced:traced.win ~plain:plain.win);
        ]
    in
    say "%s traced: %d ops, overhead %+.0f%%" a.workload ops
      (100. *. tracing_overhead ~traced:traced.win ~plain:plain.win);
    {
      correct = deterministic && plain.outcome.Outcome.wrong = 0 && plain.outcome.Outcome.refused = 0;
      attempted = ops;
      failed = Outcome.failed plain.outcome;
      values;
    }
  end

let chaos_bench (a : args) =
  let cfg = chaos_config a.seed in
  let full ?hook () =
    match fst (chaos_once ?hook a.seed) with Some r -> r | None -> failwith "chaos-cache: run stopped early"
  in
  (* Untraced runs time the host; repeat until the run has measured for
     [--seconds]. Every repeat must reproduce the first exactly. *)
  let started = Host.cpu () in
  let rec untraced acc =
    if acc <> [] && Host.cpu () -. started >= a.seconds then List.rev acc else untraced (full () :: acc)
  in
  let plains = untraced [] in
  let plain = List.hd plains in
  let h = Layer_trace.create () in
  Layer_trace.start ();
  let traced = full ~hook:h () in
  Layer_trace.finish h;
  let r = plain.report in
  let deterministic =
    List.for_all
      (fun p -> same "the chaos digest" (chaos_fingerprint p.report) (chaos_fingerprint r))
      (traced :: plains)
  in
  let ok = r.Chaos.ok && r.Chaos.corrupt_reads = 0 in
  if not r.Chaos.ok then say "chaos invariants failed: %s" (String.concat ", " r.Chaos.failed_invariants);
  say "chaos-cache: %d ops, %d refused under injected faults, %d cache hits, digest %s" r.Chaos.ops
    r.Chaos.failed_ops r.Chaos.cache_hits r.Chaos.digest;
  let events = window_events plain.win in
  let windows = List.map (fun p -> p.win) plains in
  say "host ops/s %.0f at reference speed (reference run %.3f ms here); whole windows: %s"
    (ops_per_host_s ~ops:r.Chaos.ops ~events windows) (Host.reference_time windows *. 1e3)
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.0f" (whole_window_rate ~ops:r.Chaos.ops p.win)) plains));
  let duration = cfg.Chaos.duration in
  (* Refusals while faults are injected are within the chaos contract
     (bounded outage, checked by [Chaos.report.ok]); they are counted by
     client.error_rate, not as failed operations. *)
  let failed = if ok then 0 else r.Chaos.failed_ops + r.Chaos.corrupt_reads + r.Chaos.lost_writes in
  let values =
    if not a.trace then begin
      let kqps = float_of_int r.Chaos.ops /. duration /. 1e3 in
      let watts = float_of_int cfg.Chaos.nnodes *. Platform.wall_power Platform.smartnic_jbof ~util:1. in
      [
        ("sim_ops_per_host_s", ops_per_host_s ~ops:r.Chaos.ops ~events windows);
        (* [Chaos.run] builds and preloads its cluster before the first
           worker runs; stopping the simulation there times set-up alone. *)
        ( "setup_s",
          Host.setup_time
            (List.init 21 (fun _ ->
                 let setup = snd (chaos_once ~setup_only:true a.seed) in
                 (setup, Host.reference_runs ()))) );
        ("peak_rss_mb", peak_rss_mb ());
        ("sim_kqps", kqps);
        ("sim_kq_per_joule", kqps /. watts);
      ]
      @ latency_metrics ~get:h.Layer_trace.client_get ~put:h.Layer_trace.client_put ~scale:1.
    end
    else begin
      let keys = Array.init cfg.Chaos.nkeys Workload.key_of_id in
      chaos_layers plain
      @ chaos_trace_layers h r ~window_s:duration
      @ trace_layers h ~ops:r.Chaos.ops ~window_s:duration
      @ micro ~nnodes:cfg.Chaos.nnodes ~keys
          ~vlen:(cfg.Chaos.object_size - Workload.key_size)
      @ [ ("trace.overhead", tracing_overhead ~traced:traced.win ~plain:plain.win) ]
    end
  in
  { correct = ok && deterministic; attempted = r.Chaos.ops; failed; values }

let () =
  let a = parse_args Sys.argv in
  let res =
    match a.workload with
    | "ycsb-b" -> ycsb_bench (ycsb_b ()) a
    | "ycsb-a-full" -> ycsb_bench (ycsb_a_full ()) a
    | _ -> chaos_bench a
  in
  let declared = if a.trace then per_layer else end_to_end in
  let values =
    List.map
      (fun (name, value) ->
        { Metric.name; value; unit_ = Option.value (List.assoc_opt name declared) ~default:"?" })
      res.values
  in
  Metric.check_declared ~declared values;
  print_endline (Metric.result_line ~correct:res.correct ~attempted:res.attempted ~failed:res.failed values);
  if not res.correct then exit 1

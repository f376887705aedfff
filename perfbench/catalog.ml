(* Every metric the benchmark reports, with its unit. BENCHMARK.json
   declares the same names and units (a test checks they agree): the
   end-to-end set is printed with --trace 0, the per-layer set with
   --trace 1. *)

let end_to_end =
  [
    ("sim_ops_per_host_s", "ops/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("sim_kqps", "KQPS");
    ("sim_kq_per_joule", "KQ/J");
    ("sim_get_p50_us", "us");
    ("sim_get_p99_us", "us");
    ("sim_get_p999_us", "us");
    ("sim_put_p50_us", "us");
    ("sim_put_p99_us", "us");
    ("sim_put_p999_us", "us");
  ]

let trace_cats = [ "client"; "net"; "node"; "engine"; "dev"; "control"; "cache" ]
let busy_cats = [ "client"; "node"; "engine"; "dev"; "control" ]

let per_layer =
  [
    ("sim.events_per_op", "events/op");
    ("sim.spawns_per_op", "spawns/op");
    ("sim.max_pending_events", "events");
    ("sim.minor_words_per_op", "words/op");
    ("sim.promoted_words_per_op", "words/op");
    ("sim.host_ns_per_event", "ns");
    ("workload.next_ns", "ns");
    ("codec.decode_bucket_ns", "ns");
    ("codec.encode_bucket_ns", "ns");
    ("ring.chain_ns", "ns");
    ("client.retries_per_op", "retries/op");
    ("client.nacks_per_op", "nacks/op");
    ("client.backoff_us_per_op", "us/op");
    ("client.hedges_per_get", "hedges/get");
    ("client.error_rate", "ratio");
    ("client.get_samples", "count");
    ("client.put_samples", "count");
    ("netsim.msgs_per_op", "msgs/op");
    ("netsim.bytes_per_op", "B/op");
    ("netsim.flight_us_p50", "us");
    ("netsim.flight_us_p99", "us");
    ("netsim.dropped", "count");
    ("netcache.hit_ratio", "ratio");
    ("netcache.misses_per_get", "misses/get");
    ("netcache.invalidations_per_put", "inval/put");
    ("netcache.sprays", "count");
    ("netcache.populates", "count");
    ("netcache.evictions", "count");
    ("node.write_applies_per_put", "applies/put");
    ("node.shipped_read_ratio", "ratio");
    ("node.version_queries_per_get", "queries/get");
    ("node.get_us", "us");
    ("node.write_us", "us");
    ("engine.deferred_ratio", "ratio");
    ("engine.denied_per_op", "denials/op");
    ("engine.swap_ratio", "ratio");
    ("engine.queue_wait_us_p50", "us");
    ("engine.queue_wait_us_p99", "us");
    ("engine.exec_us_p50", "us");
    ("store.nvme_per_get", "accesses/get");
    ("store.nvme_per_put", "accesses/put");
    ("store.cpu_us_per_get", "us");
    ("store.cpu_us_per_put", "us");
    ("store.compaction_runs", "count");
    ("store.merged_segments", "count");
    ("store.index_bytes_per_object", "B");
    ("blockdev.reads_per_op", "reads/op");
    ("blockdev.writes_per_op", "writes/op");
    ("blockdev.write_amp", "ratio");
    ("blockdev.busy_frac", "ratio");
    ("blockdev.read_us_p50", "us");
    ("blockdev.write_us_p50", "us");
    ("control.failures_handled", "count");
    ("control.joins", "count");
    ("control.copy_arcs", "count");
    ("control.copy_us", "us");
    ("control.probe_rounds_per_s", "1/s");
    ("control.recovery_s", "s");
    ("fault.lin_checked_keys", "count");
  ]
  @ List.map (fun c -> ("trace." ^ c ^ ".events_per_op", "events/op")) trace_cats
  @ List.map (fun c -> ("trace." ^ c ^ ".busy_us_per_op", "us/op")) busy_cats
  @ [
      ("trace.engine.wait_us_per_op", "us/op");
      ("trace.net.flight_us_per_op", "us/op");
      ("trace.overhead", "ratio");
    ]
  @ List.concat_map
      (fun g -> [ ("host." ^ g ^ ".ns_per_event", "ns"); ("host." ^ g ^ ".event_share", "ratio") ])
      (Array.to_list Layer_trace.groups)


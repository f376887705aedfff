(* The backend-generic KV service boundary: one module type every
   comparable system implements (LEED, FAWN, KVell), an existential
   packing so harness code can hold "some backend", and the unified
   metrics record the experiments report. *)

type counters = {
  nvme_reads : int;
  nvme_writes : int;
  device_busy : float;
  nacks : int;
  retries : int;
  backoff_time : float;
  joins : int;
  leaves : int;
  failures_handled : int;
  corrupt_reads : int;
  read_repairs : int;
  scrubbed_segments : int;
  scrub_repairs : int;
  hedges : int;
  hedge_wins : int;
  sheds : int;
  slow_events : int;
  quorum_rounds : int;
  writebacks : int;
  lin_checked_keys : int;
  cache_hits : int;
  cache_misses : int;
  cache_invalidations : int;
  cache_sprays : int;
  cache_hot_keys : int;
}

let no_counters =
  {
    nvme_reads = 0;
    nvme_writes = 0;
    device_busy = 0.;
    nacks = 0;
    retries = 0;
    backoff_time = 0.;
    joins = 0;
    leaves = 0;
    failures_handled = 0;
    corrupt_reads = 0;
    read_repairs = 0;
    scrubbed_segments = 0;
    scrub_repairs = 0;
    hedges = 0;
    hedge_wins = 0;
    sheds = 0;
    slow_events = 0;
    quorum_rounds = 0;
    writebacks = 0;
    lin_checked_keys = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_invalidations = 0;
    cache_sprays = 0;
    cache_hot_keys = 0;
  }

let nvme_accesses c = c.nvme_reads + c.nvme_writes

let of_devices devs =
  let module B = Leed_blockdev.Blockdev in
  let reads, writes, busy, n =
    List.fold_left
      (fun (r, w, busy, n) d ->
        let s = B.stats d in
        (r + s.B.n_reads, w + s.B.n_writes, busy +. B.busy_seconds d, n + 1))
      (0, 0, 0., 0) devs
  in
  {
    no_counters with
    nvme_reads = reads;
    nvme_writes = writes;
    device_busy = (if n > 0 then busy /. float_of_int n else 0.);
  }

let diff_counters ~after ~before =
  {
    nvme_reads = after.nvme_reads - before.nvme_reads;
    nvme_writes = after.nvme_writes - before.nvme_writes;
    device_busy = after.device_busy -. before.device_busy;
    nacks = after.nacks - before.nacks;
    retries = after.retries - before.retries;
    backoff_time = after.backoff_time -. before.backoff_time;
    joins = after.joins - before.joins;
    leaves = after.leaves - before.leaves;
    failures_handled = after.failures_handled - before.failures_handled;
    corrupt_reads = after.corrupt_reads - before.corrupt_reads;
    read_repairs = after.read_repairs - before.read_repairs;
    scrubbed_segments = after.scrubbed_segments - before.scrubbed_segments;
    scrub_repairs = after.scrub_repairs - before.scrub_repairs;
    hedges = after.hedges - before.hedges;
    hedge_wins = after.hedge_wins - before.hedge_wins;
    sheds = after.sheds - before.sheds;
    slow_events = after.slow_events - before.slow_events;
    quorum_rounds = after.quorum_rounds - before.quorum_rounds;
    writebacks = after.writebacks - before.writebacks;
    lin_checked_keys = after.lin_checked_keys - before.lin_checked_keys;
    cache_hits = after.cache_hits - before.cache_hits;
    cache_misses = after.cache_misses - before.cache_misses;
    cache_invalidations = after.cache_invalidations - before.cache_invalidations;
    cache_sprays = after.cache_sprays - before.cache_sprays;
    (* a gauge, not a counter: report the end-of-window hot-set size *)
    cache_hot_keys = after.cache_hot_keys;
  }

type metrics = {
  label : string;
  ops : int;
  duration : float;
  throughput : float;
  latency : Leed_stats.Histogram.t;
  avg_lat : float;
  p99 : float;
  p999 : float;
  nvme_accesses : int;
  counters : counters;
  watts : float;
  queries_per_joule : float;
}

module type S = sig
  type t
  type config
  type client

  val name : string
  val default_config : config
  val create : ?config:config -> unit -> t
  val start : t -> unit
  val stop : t -> unit
  val client : t -> client
  val get : client -> string -> bytes option
  val put : client -> string -> bytes -> unit
  val del : client -> string -> unit
  val execute : client -> Leed_workload.Workload.op -> unit
  val total_objects : t -> int
  val counters : t -> counters
  val watts : t -> util:float -> float
end

type t = Pack : (module S with type t = 'a and type client = 'c) * 'a -> t
type client = Client : (module S with type t = 'a and type client = 'c) * 'c -> client

let pack m inst = Pack (m, inst)

let name (Pack ((module M), _)) = M.name
let start (Pack ((module M), b)) = M.start b
let stop (Pack ((module M), b)) = M.stop b
let client (Pack ((module M), b)) = Client ((module M), M.client b)
let total_objects (Pack ((module M), b)) = M.total_objects b
let counters (Pack ((module M), b)) = M.counters b
let watts (Pack ((module M), b)) ~util = M.watts b ~util

let get (Client ((module M), c)) key = M.get c key
let put (Client ((module M), c)) key value = M.put c key value
let del (Client ((module M), c)) key = M.del c key
let execute (Client ((module M), c)) op = M.execute c op

let measure ~label b run =
  let module D = Leed_workload.Workload.Driver in
  let before = counters b in
  let r = run () in
  let delta = diff_counters ~after:(counters b) ~before in
  (* Energy from *observed* device activity over the window, not
     config-time constants: a fault-degraded SSD burns its longer service
     times here, where a static model would never notice. *)
  let util =
    if r.D.duration > 0. then Float.min 1.0 (delta.device_busy /. r.D.duration) else 0.
  in
  let w = watts b ~util in
  {
    label;
    ops = r.D.ops;
    duration = r.D.duration;
    throughput = r.D.throughput;
    latency = r.D.latency;
    avg_lat = Leed_stats.Histogram.mean r.D.latency;
    p99 = Leed_stats.Histogram.percentile r.D.latency 0.99;
    p999 = Leed_stats.Histogram.percentile r.D.latency 0.999;
    nvme_accesses = nvme_accesses delta;
    counters = delta;
    watts = w;
    queries_per_joule = (if w > 0. then r.D.throughput /. w else 0.);
  }

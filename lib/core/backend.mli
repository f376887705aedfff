(** The backend-generic KV service boundary.

    The paper's whole evaluation (§4, Figs 5–14, Table 3) is comparative —
    LEED vs FAWN vs KVell per-watt and per-dollar — so every system must
    expose the same service surface: lifecycle (create/start/stop), client
    acquisition, the four data operations, object accounting, and a
    uniform observability record. A system implements {!S}; callers that
    do not care which system they drive hold a packed {!t} / {!client}
    and use the generic operations below.

    Implementations: [Leed_backend] (this library),
    [Leed_baselines.Fawn_cluster], and [Leed_baselines.Kvell_cluster].
    Adding a backend = implement {!S}, then {!pack} it (see DESIGN.md
    "How to add a backend"). *)

(** Cumulative service counters, uniform across backends — the one
    declaration of every service metric. A backend fills the counters it
    models and leaves the rest 0 (see {!of_devices}); deltas over a
    measurement window form {!metrics.counters}. A new counter is a field
    here, a line in {!no_counters} and {!diff_counters}, and the backend
    that counts it. *)
type counters = {
  nvme_reads : int;   (** block-device read commands issued (§3.3 accesses) *)
  nvme_writes : int;  (** block-device write commands issued *)
  device_busy : float;
      (** mean equivalent fully-busy device-seconds across the cluster's
          block devices ({!Leed_blockdev.Blockdev.busy_seconds}) — the
          observed-activity signal the energy model derives utilisation
          from. Linear, so window deltas are meaningful. *)
  nacks : int;        (** client-observed rejections (NACK / error / timeout) *)
  retries : int;      (** client-side retries after a rejection *)
  backoff_time : float;
      (** cumulative seconds clients slept in retry backoff — the
          client-visible cost of failures and overload *)
  joins : int;             (** membership joins completed (§3.8.1) *)
  leaves : int;            (** graceful leaves / failure expulsions completed *)
  failures_handled : int;  (** failure detections that triggered chain repair *)
  corrupt_reads : int;     (** checksum failures detected on the read path *)
  read_repairs : int;      (** corrupt entries healed from a CRRS replica *)
  scrubbed_segments : int; (** segments walked by the background scrubber *)
  scrub_repairs : int;     (** rotted values the scrubber healed *)
  hedges : int;            (** hedged GETs fired against a slow primary *)
  hedge_wins : int;        (** hedges whose response beat the primary *)
  sheds : int;
      (** deadline sheds: engine-side expired-queue drops plus client-side
          abandonments *)
  slow_events : int;       (** gray-failure escalations/de-escalations pushed *)
  quorum_rounds : int;
      (** ABD quorum round-trips executed by clients (phase 1 + phase 2 +
          write-backs); 0 under CRRS and for the non-replicated baselines *)
  writebacks : int;
      (** ABD reads that needed a repair write-back round before
          answering; 0 under CRRS and for the baselines *)
  lin_checked_keys : int;
      (** keys whose operation history passed through the linearizability
          checker; 0 outside a chaos run (the chaos harness owns the
          history recorder and reports the count through its digest) *)
  cache_hits : int;
      (** GETs answered by the in-network cache at the switch (§15);
          0 unless the cluster armed [cache: ttl_lru] *)
  cache_misses : int;     (** WARM/HOT GETs looked up but not resident *)
  cache_invalidations : int;
      (** write-driven evictions that removed at least one cached entry *)
  cache_sprays : int;     (** HOT GETs round-robined across cache instances *)
  cache_hot_keys : int;
      (** hash groups currently classified HOT — a gauge, not a counter
          ({!diff_counters} keeps the [after] value rather than
          subtracting) *)
}

val no_counters : counters

val nvme_accesses : counters -> int
(** [nvme_reads + nvme_writes]. *)

val diff_counters : after:counters -> before:counters -> counters

val of_devices : Leed_blockdev.Blockdev.t list -> counters
(** The device-side counters of a cluster's block devices: [nvme_reads]
    and [nvme_writes] summed, [device_busy] the mean
    {!Leed_blockdev.Blockdev.busy_seconds} (a left fold in list order;
    0 for no devices). Every other counter is 0, so a backend reports
    what it models as [{ (of_devices devs) with nacks; ... }]. *)

(** The unified measurement record: driver-side load numbers combined
    with the backend's counter deltas and its modeled wall power. *)
type metrics = {
  label : string;
  ops : int;
  duration : float;          (** simulated seconds of the window *)
  throughput : float;        (** ops/s *)
  latency : Leed_stats.Histogram.t;
  avg_lat : float;           (** seconds *)
  p99 : float;
  p999 : float;
  nvme_accesses : int;       (** device commands during the window *)
  counters : counters;
      (** the window's counter deltas, [diff_counters] of the snapshots
          taken around the run ([cache_hot_keys] is the end-of-window
          gauge) *)
  watts : float;             (** modeled cluster wall power (paper's meters) *)
  queries_per_joule : float; (** throughput / watts — the paper's headline *)
}

(** What a KV system must provide to be comparable. *)
module type S = sig
  type t
  type config
  type client

  val name : string
  (** Short selector name ("leed", "fawn", "kvell"). *)

  val default_config : config

  val create : ?config:config -> unit -> t
  (** Build the cluster inside a simulation ([Sim.run]) context. The
      returned system is fully started (see {!start}). *)

  val start : t -> unit
  (** Idempotent; systems come up running from {!create}. *)

  val stop : t -> unit
  (** Quiesce background machinery (schedulers, compactors) where the
      system supports it. *)

  val client : t -> client
  (** A new front-end endpoint with its own NIC attachment. *)

  val get : client -> string -> bytes option
  val put : client -> string -> bytes -> unit
  val del : client -> string -> unit
  val execute : client -> Leed_workload.Workload.op -> unit

  val total_objects : t -> int
  (** Live objects summed over every store (R replicas count R times). *)

  val counters : t -> counters
  (** Cumulative since creation; callers take deltas. *)

  val watts : t -> util:float -> float
  (** Modeled wall power of the whole cluster at average device
      utilisation [util] ∈ [0,1]. Polling stacks (LEED's SmartNICs,
      KVell's Xeons) burn near-max regardless of [util]; interrupt-driven
      platforms (FAWN's Pis) scale between idle and active power. Callers
      derive [util] from observed {!counters.device_busy} deltas — see
      {!measure}. *)
end

(** {1 Packed instances}

    A backend instance with its implementation module, usable without
    knowing which system it is. *)

type t = Pack : (module S with type t = 'a and type client = 'c) * 'a -> t
type client = Client : (module S with type t = 'a and type client = 'c) * 'c -> client

val pack : (module S with type t = 'a and type client = 'c) -> 'a -> t

val name : t -> string
val start : t -> unit
val stop : t -> unit
val client : t -> client
val total_objects : t -> int
val counters : t -> counters
val watts : t -> util:float -> float

val get : client -> string -> bytes option
val put : client -> string -> bytes -> unit
val del : client -> string -> unit
val execute : client -> Leed_workload.Workload.op -> unit

val measure :
  label:string -> t -> (unit -> Leed_workload.Workload.Driver.result) -> metrics
(** [measure ~label b run] snapshots the backend's counters around [run]
    (a workload-driver invocation) and combines the driver's result with
    the counter deltas and the backend's modeled power into one
    {!metrics} record. Power is evaluated at the device utilisation
    actually observed during the window ([device_busy] delta over
    duration), so fault-degraded devices — which stay busy longer per
    command — raise the reported watts on power-proportional platforms
    instead of being invisible to a config-time constant. *)

(* LEED packaged as a Backend.S implementation: the whole-cluster
   assembly (Cluster) plus its front-end client library (Client) behind
   the backend-generic service boundary. *)

open Leed_platform

type config = Cluster.config
type t = Cluster.t
type client = Client.t

let name = "leed"
let default_config = Cluster.default_config
let create ?(config = default_config) () = Cluster.create ~config ()

(* Cluster.create brings nodes, control plane, and heartbeats up. *)
let start _ = ()
let stop t = List.iter (fun n -> Engine.stop (Node.engine n)) (Cluster.nodes t)

let client t = Cluster.client t
let get = Client.get
let put = Client.put
let del = Client.del
let execute = Client.execute
let total_objects = Cluster.total_objects

let counters t =
  let nodes = Cluster.nodes t and clients = Cluster.clients t in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let node_sum f = sum (fun n -> f (Node.stats n)) nodes in
  let client_sum f = sum f clients in
  let engine_sum arr f =
    sum (fun n -> Array.fold_left (fun acc x -> acc + f x) 0 (arr (Node.engine n))) nodes
  in
  let cs = Control.stats (Cluster.control t) in
  let c =
    {
      (Backend.of_devices
         (List.concat_map (fun n -> Array.to_list (Engine.devices (Node.engine n))) nodes))
      with
      nacks = client_sum Client.nacks;
      retries = client_sum Client.retries;
      backoff_time = List.fold_left (fun b c -> b +. Client.backoff_time c) 0. clients;
      joins = cs.Control.n_joins;
      leaves = cs.Control.n_leaves;
      failures_handled = cs.Control.n_failures_handled;
      corrupt_reads =
        engine_sum Engine.partitions (fun p -> (Store.counters (Engine.store p)).Store.corrupt);
      read_repairs = node_sum (fun s -> s.Node.n_read_repairs);
      scrubbed_segments = node_sum (fun s -> s.Node.n_scrubbed_segments);
      scrub_repairs = node_sum (fun s -> s.Node.n_scrub_repairs);
      hedges = client_sum Client.hedges;
      hedge_wins = client_sum Client.hedge_wins;
      sheds =
        client_sum Client.sheds + engine_sum Engine.ssds (fun s -> (Engine.ssd_stats s).Engine.shed);
      slow_events = cs.Control.n_slow_events;
      quorum_rounds = client_sum Client.quorum_rounds;
      writebacks = client_sum Client.writebacks;
    }
  in
  match Cluster.cache t with
  | None -> c
  | Some nc ->
      let s = Netcache.stats nc in
      {
        c with
        cache_hits = s.Netcache.hits;
        cache_misses = s.Netcache.misses;
        cache_invalidations = s.Netcache.invalidations;
        cache_sprays = s.Netcache.sprays;
        cache_hot_keys = s.Netcache.hot_groups;
      }

let watts t ~util =
  let nnodes = List.length (Cluster.nodes t) in
  float_of_int nnodes *. Platform.wall_power (Cluster.config t).Cluster.platform ~util

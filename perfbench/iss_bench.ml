(* The repo benchmark's OCaml half: one simulated ISS run per process.

   perfbench/run.py drives this executable; each mode prints one JSON object
   on its last stdout line.

     iss_bench selftest
     iss_bench setup  WORKLOAD SEED          construction + fault application
     iss_bench run    WORKLOAD SEED [--gc]   timed run, tracing off
     iss_bench traced WORKLOAD SEED          lifecycle tracer, registry, conformance checker
     iss_bench micro  WORKLOAD BATCH EPOCH_SNS POLICY_BYTES MSG_BYTES
                                             per-call cost of the leaf layers

   Load is open loop in virtual time ([Runner.Workload]): the generator
   submits on schedule whatever the cluster does, so it can never run late,
   and every latency runs from the request's scheduled submit time.  Every
   run advances the engine in fixed virtual-time slices; the self-test
   proves slicing leaves the simulation bit-identical to one [Engine.run]. *)

module Cluster = Runner.Cluster
module Engine = Sim.Engine
module Time_ns = Sim.Time_ns
module Histogram = Sim.Metrics.Histogram
module J = Obs.Jsonx

type workload = {
  name : string;
  protocol : Core.Config.protocol;  (** run as ISS over this orderer *)
  n : int;
  rate : float;  (** offered load, req/s *)
  window_s : float;  (** simulated submission window *)
  scenario : string option;  (** named [Runner.Faults] scenario *)
  trace_sample : int;  (** the tracer keeps one request in this many *)
}

(* Why each workload exists is in perfbench/README.md. *)
let workloads =
  [
    {
      name = "iss-pbft-32";
      protocol = Core.Config.PBFT;
      n = 32;
      rate = 4000.0;
      window_s = 16.0;
      scenario = None;
      trace_sample = 16;
    };
    {
      name = "iss-raft-128";
      protocol = Core.Config.Raft;
      n = 128;
      rate = 8000.0;
      window_s = 4.0;
      scenario = None;
      trace_sample = 64;
    };
    {
      name = "iss-hotstuff-16-crash";
      protocol = Core.Config.HotStuff;
      n = 16;
      rate = 2000.0;
      window_s = 30.0;
      scenario = Some "crash-recover";
      trace_sample = 8;
    };
  ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None -> failwith (Printf.sprintf "unknown workload %S" name)

(* Virtual time per engine slice; registry gauges and GC events are sampled
   at slice boundaries. *)
let slice = Time_ns.ms 200

(* A fault-free run drains until every request is terminal; this caps it. *)
let max_drain = Time_ns.sec 120

let wall () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Reply-quorum completions, observed from outside the cluster *)

(* Mirrors the cluster's per-sequence-number reply-quorum rule from the raw
   delivery stream: a batch completes when the [quorum]-th node delivers
   it.  Submission times come from the submission observer. *)
type probe = {
  quorum : int;
  per_sn : (int, int) Hashtbl.t;
  mutable completions : (Time_ns.t * int) list;  (* (time, requests), newest first *)
  mutable completed : int;
  mutable submits : Time_ns.t array;
  mutable n_submits : int;
}

let probe_create ~quorum =
  {
    quorum;
    per_sn = Hashtbl.create 4096;
    completions = [];
    completed = 0;
    submits = Array.make 4096 0;
    n_submits = 0;
  }

let probe_submit p at =
  if p.n_submits = Array.length p.submits then begin
    let a = Array.make (2 * p.n_submits) 0 in
    Array.blit p.submits 0 a 0 p.n_submits;
    p.submits <- a
  end;
  p.submits.(p.n_submits) <- at;
  p.n_submits <- p.n_submits + 1

let probe_deliver p ~now ~sn len =
  let c = 1 + Option.value ~default:0 (Hashtbl.find_opt p.per_sn sn) in
  Hashtbl.replace p.per_sn sn c;
  if c = p.quorum && len > 0 then begin
    p.completions <- (now, len) :: p.completions;
    p.completed <- p.completed + len
  end

(* Requests completed per second of the submission window.  A mean of
   1-second throughput bins under-reads bursty delivery: deliveries that
   arrive every 4 s read as one full bin and three empty ones. *)
let goodput ~completed ~window_s = float_of_int completed /. window_s

(* The longest interval with at least one request outstanding and no reply
   quorum reached.  [submits] are sorted submission times and [completions]
   (time, requests) pairs in time order.  After [done_] completions the
   earliest outstanding request is submission number [done_] (by count:
   nothing completes before it is submitted), so the gap that ends at
   completion time [t] opens at max(previous completion, submits.(done_)). *)
let outage ~submits ~completions =
  let n = Array.length submits in
  let worst = ref 0 and done_ = ref 0 and prev = ref min_int in
  List.iter
    (fun (t, k) ->
      if !done_ < n then begin
        let opened = max !prev submits.(!done_) in
        worst := max !worst (t - opened)
      end;
      done_ := !done_ + k;
      prev := t)
    completions;
  !worst

(* ------------------------------------------------------------------ *)
(* One run *)

type env = {
  w : workload;
  seed : int64;
  cluster : Cluster.t;
  probe : probe;
  window : Time_ns.t;
  run_until : Time_ns.t;
}

(* Cluster construction and fault application: what [setup_s] times. *)
let make_env ?engine ?tracer ?registry w ~seed =
  let cluster =
    Cluster.create ?engine ?tracer ?registry ~system:(Cluster.Iss w.protocol) ~n:w.n ~seed ()
  in
  let window = Time_ns.of_sec_f w.window_s in
  let run_until =
    match w.scenario with
    | None -> window
    | Some name ->
        let sc =
          match Runner.Faults.named ~n:w.n name with Ok sc -> sc | Error e -> failwith e
        in
        let config = Cluster.config cluster in
        (match Runner.Faults.validate ~protocol:w.protocol sc ~n:w.n with
        | Ok () -> ()
        | Error e -> failwith e);
        Runner.Faults.apply sc cluster;
        Cluster.enable_invariants cluster;
        (* The scenario path of [iss_sim run --scenario]: run to heal time
           plus the liveness grace, then assert liveness. *)
        Time_ns.of_sec_f
          (Float.max w.window_s
             (Runner.Faults.heal_s sc +. Runner.Faults.liveness_grace_s config))
  in
  let probe = probe_create ~quorum:(Cluster.reply_quorum cluster) in
  { w; seed; cluster; probe; window; run_until }

(* Installs the probe as the cluster's (single) submission and delivery
   observer, chained with [also_*] for the traced run's checker. *)
let observe ?(also_submit = fun _ -> ())
    ?(also_deliver = fun ~node:_ ~sn:_ ~first_request_sn:_ _ -> ()) env =
  let engine = Cluster.engine env.cluster in
  Cluster.set_submission_observer env.cluster (fun r ->
      probe_submit env.probe r.Proto.Request.submitted_at;
      also_submit r);
  Cluster.set_delivery_observer env.cluster (fun ~node ~sn ~first_request_sn batch ->
      probe_deliver env.probe ~now:(Engine.now engine) ~sn (Proto.Batch.length batch);
      also_deliver ~node ~sn ~first_request_sn batch)

let terminal c = Cluster.delivered_quorum c + Cluster.gave_up_count c >= Cluster.submitted c

(* Cluster.start to the end of the run: the load window (or the scenario's
   heal time plus grace, then the liveness assertion), then for fault-free
   runs a drain until every request is terminal.  [sliced = false] makes
   the pre-drain phase one [Engine.run] call (self-test only). *)
let drive ?(sliced = true) ?(on_slice = fun () -> ()) env =
  let c = env.cluster in
  let engine = Cluster.engine c in
  Cluster.start c;
  Runner.Workload.start ~cluster:c ~rate:env.w.rate ~resubmit:(Option.is_some env.w.scenario)
    ~shape_seed:env.seed ~sweep_until:env.run_until ~until:env.window ();
  let step limit =
    Engine.run ~until:(min limit (Engine.now engine + slice)) engine;
    on_slice ()
  in
  if sliced then
    while Engine.now engine < env.run_until do
      step env.run_until
    done
  else Engine.run ~until:env.run_until engine;
  match env.w.scenario with
  | Some _ -> Cluster.check_liveness c
  | None ->
      let cap = env.run_until + max_drain in
      while (not (terminal c)) && Engine.now engine < cap do
        step cap
      done

(* The simulated outputs of a run: deterministic for a seed. *)
let sim_outputs env =
  let c = env.cluster in
  let engine = Cluster.engine c in
  let net = Cluster.network c in
  let lat = Cluster.quorum_latencies c in
  let submits = Array.sub env.probe.submits 0 env.probe.n_submits in
  Array.sort compare submits;
  let completions = List.rev env.probe.completions in
  let submitted = Cluster.submitted c in
  let delivered = Cluster.delivered_quorum c in
  let gave_up = Cluster.gave_up_count c in
  let failed = max 0 (submitted - delivered - gave_up) in
  J.Obj
    [
      ("submitted", J.Int submitted);
      ("delivered", J.Int delivered);
      ("probe_completed", J.Int env.probe.completed);
      ("gave_up", J.Int gave_up);
      ("failed", J.Int failed);
      ( "terminal_frac",
        J.Float (float_of_int (submitted - failed) /. float_of_int (max 1 submitted)) );
      ("goodput_req_s", J.Float (goodput ~completed:env.probe.completed ~window_s:env.w.window_s));
      ("lat_samples", J.Int (Histogram.count lat));
      ("lat_p50_s", J.Float (Histogram.percentile lat 50.0));
      ("lat_p999_s", J.Float (Histogram.percentile lat 99.9));
      ("outage_s", J.Float (Time_ns.to_sec_f (outage ~submits ~completions)));
      ("end_s", J.Float (Time_ns.to_sec_f (Engine.now engine)));
      ("events", J.Int (Engine.events_executed engine));
      ("net_msgs", J.Int (Sim.Network.messages_sent net));
      ("net_bytes", J.Int (Sim.Network.bytes_sent net));
    ]

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* GC time via Runtime_events *)

(* Minor collections and major slices started outside a minor collection:
   disjoint, so their sum is the run's GC time. *)
type gc_clock = {
  mutable in_minor : bool;
  mutable minor_start : int64;
  mutable major_start : int64 option;
  mutable minor_ns : int64;
  mutable major_ns : int64;
  mutable lost : int;
}

let gc_clock_start () =
  Runtime_events.start ();
  let g =
    {
      in_minor = false;
      minor_start = 0L;
      major_start = None;
      minor_ns = 0L;
      major_ns = 0L;
      lost = 0;
    }
  in
  let cursor = Runtime_events.create_cursor None in
  let runtime_begin _ ts phase =
    let ts = Runtime_events.Timestamp.to_int64 ts in
    match phase with
    | Runtime_events.EV_MINOR ->
        g.in_minor <- true;
        g.minor_start <- ts
    | Runtime_events.EV_MAJOR_SLICE -> if not g.in_minor then g.major_start <- Some ts
    | _ -> ()
  in
  let runtime_end _ ts phase =
    let ts = Runtime_events.Timestamp.to_int64 ts in
    match phase with
    | Runtime_events.EV_MINOR ->
        if g.in_minor then g.minor_ns <- Int64.add g.minor_ns (Int64.sub ts g.minor_start);
        g.in_minor <- false
    | Runtime_events.EV_MAJOR_SLICE -> (
        match g.major_start with
        | Some t0 ->
            g.major_ns <- Int64.add g.major_ns (Int64.sub ts t0);
            g.major_start <- None
        | None -> ())
    | _ -> ()
  in
  let callbacks =
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
      ~lost_events:(fun _ k -> g.lost <- g.lost + k)
      ()
  in
  let poll () = ignore (Runtime_events.read_poll cursor callbacks None) in
  (g, poll)

(* ------------------------------------------------------------------ *)
(* Host speed reference *)

module Int_map = Map.Make (Int)

(* The shared host's speed drifts by a quarter over minutes, and a run's
   host time drifts with it.  This fixed piece of Stdlib-only work, timed
   where the run meets the host (between slices, around construction),
   measures that speed.  It never calls the repo's libraries and allocates
   nothing, so the program's code, heap and GC cannot change its cost.  It
   mixes branchy lookups in a small tree with random read-modify-writes
   over 64 MB outside the OCaml heap: measured on the crash workload, the
   run slows with the host about as much as the memory part does, and
   more than a purely cache-resident loop would.  run.py divides host times
   by the median chunk time. *)
let reference_tree =
  let x = ref 99 in
  let m = ref Int_map.empty in
  for _ = 1 to 512 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    m := Int_map.add (!x land 0xFFFF) () !m
  done;
  !m

let reference_words = 1 lsl 23

let reference_memory =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout reference_words in
     Bigarray.Array1.fill a 0;
     a)

(* Carried across chunks, so each chunk touches fresh lines of the 64 MB. *)
let reference_state = ref 12345

let reference_chunk () =
  let mem = Lazy.force reference_memory in
  let x = reference_state and hits = ref 0 in
  for _ = 1 to 2_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    if Int_map.mem (!x land 0xFFFF) reference_tree then incr hits;
    for _ = 1 to 3 do
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
      let i = !x land (reference_words - 1) in
      Bigarray.Array1.unsafe_set mem i (Bigarray.Array1.unsafe_get mem i + 1)
    done
  done;
  ignore (Sys.opaque_identity !hits)

(* A first, untimed chunk brings the tree and the page tables of the 64 MB
   back into cache, so that what the program left there does not count. *)
let time_reference () =
  reference_chunk ();
  let t0 = wall () in
  reference_chunk ();
  wall () -. t0

let floats xs = J.List (List.map (fun x -> J.Float x) xs)

(* Construction in a fresh process, as a user meets it, with eight
   reference chunks timed just before it and eight just after. *)
let timed_setup w ~seed =
  ignore (time_reference ());
  let before = List.init 8 (fun _ -> time_reference ()) in
  let t0 = wall () in
  let env = make_env w ~seed in
  let t1 = wall () in
  let after = List.init 8 (fun _ -> time_reference ()) in
  (env, t1 -. t0, before @ after)

(* ------------------------------------------------------------------ *)
(* Modes *)

let print_json j = print_endline (J.to_string j)

let setup_mode w ~seed =
  let env, setup_s, setup_refs = timed_setup w ~seed in
  ignore (Sys.opaque_identity env);
  print_json
    (J.Obj
       [
         ("setup_s", J.Float setup_s);
         ("setup_ref_s", floats setup_refs);
         ("peak_heap_mb", J.Float (peak_heap_mb ()));
       ])

let run_mode w ~seed ~gc =
  let env, setup_s, setup_refs = timed_setup w ~seed in
  observe env;
  let gc_state = if gc then Some (gc_clock_start ()) else None in
  let poll = match gc_state with Some (_, poll) -> poll | None -> fun () -> () in
  (* Unless GC is being timed, one reference chunk runs after every slice;
     its time is left out of run_s.  The slices of a seed are fixed, so the
     allocation the timing adds is too. *)
  let excluded = ref 0.0 and chunks = ref [] in
  let stat0 = Gc.quick_stat () in
  let words0 = allocated_words () in
  let t2 = wall () in
  let last = ref t2 in
  let on_slice () =
    poll ();
    if not gc then begin
      let now = wall () in
      chunks := time_reference () :: !chunks;
      last := wall ();
      excluded := !excluded +. (!last -. now)
    end
  in
  drive ~on_slice env;
  let t3 = wall () in
  let words = allocated_words () -. words0 in
  let stat1 = Gc.quick_stat () in
  poll ();
  let sim = sim_outputs env in
  let events = Engine.events_executed (Cluster.engine env.cluster) in
  let t4 = wall () in
  let gc_fields =
    match gc_state with
    | None -> []
    | Some (g, _) ->
        [
          ("gc_minor_s", J.Float (Int64.to_float g.minor_ns /. 1e9));
          ("gc_major_s", J.Float (Int64.to_float g.major_ns /. 1e9));
          ("gc_lost_events", J.Int g.lost);
          ("gc_minor_collections", J.Int (stat1.Gc.minor_collections - stat0.Gc.minor_collections));
          ("gc_major_collections", J.Int (stat1.Gc.major_collections - stat0.Gc.major_collections));
        ]
  in
  print_json
    (J.Obj
       ([
          ("workload", J.String w.name);
          ("setup_s", J.Float setup_s);
          ("setup_ref_s", floats setup_refs);
          ("run_s", J.Float (t3 -. t2 -. !excluded));
          ("ref_s", floats (List.rev !chunks));
          ("report_s", J.Float (t4 -. t3));
          ("peak_heap_mb", J.Float (peak_heap_mb ()));
          ("alloc_words_per_event", J.Float (words /. float_of_int (max 1 events)));
          ("sim", sim);
        ]
       @ gc_fields))

(* Registry reads: the value of every per-node instance of a metric. *)
let registry_values snapshot name =
  match J.member "metrics" snapshot with
  | Some (J.List entries) ->
      List.filter_map
        (fun e ->
          match (J.member "name" e, J.member "value" e) with
          | Some (J.String n), Some v when n = name -> J.to_float v
          | _ -> None)
        entries
  | _ -> []

let traced_mode w ~seed =
  let engine = Engine.create () in
  let tracer = Obs.Tracer.create ~sample:w.trace_sample ~max_events:4_000_000 ~engine () in
  let registry = Obs.Registry.create () in
  let t0 = wall () in
  let env = make_env ~engine ~tracer ~registry w ~seed in
  let t1 = wall () in
  let c = env.cluster in
  let config = Cluster.config c in
  let checker =
    Conform.Checker.create ~n:w.n ~reply_quorum:(Cluster.reply_quorum c)
      ~window:config.Core.Config.client_watermark_window
  in
  (* Host time inside the conformance checker, timed around each call. *)
  let check_s = ref 0.0 and deliveries = ref 0 in
  let timed f =
    let s = wall () in
    let r = f () in
    check_s := !check_s +. (wall () -. s);
    r
  in
  observe env
    ~also_submit:(fun r -> timed (fun () -> Conform.Checker.note_submitted checker r))
    ~also_deliver:(fun ~node ~sn ~first_request_sn batch ->
      incr deliveries;
      timed (fun () -> Conform.Checker.note_delivery checker ~node ~sn ~first_request_sn batch));
  (* Gauge high-water marks, sampled at every slice boundary. *)
  let maxima = Hashtbl.create 8 in
  let gauges =
    [
      "node.bucket_queue.occupancy";
      "node.commit_queue.depth";
      "node.checkpoint.lag_epochs";
      "node.orderer.instances";
      "node.nic.tx_backlog_s";
    ]
  in
  let sample_s = ref 0.0 in
  let on_slice () =
    let s = wall () in
    let snap = Obs.Registry.snapshot registry ~at:(Engine.now engine) in
    List.iter
      (fun g ->
        let m = List.fold_left Float.max 0.0 (registry_values snap g) in
        let old = Option.value ~default:0.0 (Hashtbl.find_opt maxima g) in
        Hashtbl.replace maxima g (Float.max old m))
      gauges;
    sample_s := !sample_s +. (wall () -. s)
  in
  let t2 = wall () in
  drive ~on_slice env;
  let t3 = wall () in
  let run_s = t3 -. t2 -. !check_s -. !sample_s in
  let verdict = timed (fun () -> Conform.Checker.finalize checker) in
  let sim = sim_outputs env in
  let final = Obs.Registry.snapshot registry ~at:(Engine.now engine) in
  let sum name = List.fold_left ( +. ) 0.0 (registry_values final name) in
  let maxv name = List.fold_left Float.max 0.0 (registry_values final name) in
  let phases =
    List.concat_map
      (fun (label, h) ->
        [
          (label ^ " p50", J.Float (Histogram.percentile h 50.0));
          (label ^ " p99", J.Float (Histogram.percentile h 99.0));
          (label ^ " n", J.Int (Histogram.count h));
        ])
      (Obs.Tracer.breakdown tracer)
  in
  let net = Cluster.network c in
  let node_bytes = List.init w.n (fun i -> Sim.Network.endpoint_bytes_sent net i) in
  let policy_bytes =
    Array.fold_left
      (fun acc node ->
        match Core.Node.last_stable_checkpoint node with
        | Some cert -> max acc (String.length cert.Proto.Message.cc_policy)
        | None -> acc)
      0 (Cluster.nodes c)
  in
  let stats_fields, violation =
    match verdict with
    | Ok st ->
        ( [
            ("batches", J.Int st.Conform.Checker.sns);
            ("requests", J.Int st.Conform.Checker.requests);
            ("quorum_requests", J.Int st.Conform.Checker.quorum_requests);
          ],
          J.Null )
    | Error msg -> ([], J.String msg)
  in
  print_json
    (J.Obj
       ([
          ("workload", J.String w.name);
          ("n", J.Int w.n);
          ("setup_s", J.Float (t1 -. t0));
          ("run_s", J.Float run_s);
          ("sample_s", J.Float !sample_s);
          ("peak_heap_mb", J.Float (peak_heap_mb ()));
          ("conform_check_s", J.Float !check_s);
          ("conform_deliveries", J.Int !deliveries);
          ("conform_violation", violation);
          ("tracer_events", J.Int (Obs.Tracer.num_events tracer));
          ("tracer_dropped", J.Int (Obs.Tracer.dropped tracer));
          ("req_deliveries", J.Float (sum "node.delivered"));
          ("epochs", J.Float (maxv "node.epoch"));
          ("bucket_queue_max", J.Float (maxv "node.bucket_queue.max_occupancy"));
          ("shed", J.Int (Cluster.shed_total c));
          ("max_node_bytes", J.Int (List.fold_left max 0 node_bytes));
          ("node_bytes", J.Int (List.fold_left ( + ) 0 node_bytes));
          ("epoch_sns", J.Int (Core.Config.epoch_length config ~leaders:w.n));
          ("policy_bytes", J.Int policy_bytes);
          ("phases", J.Obj phases);
          ( "gauge_max",
            J.Obj (List.map (fun g -> (g, J.Float (Hashtbl.find maxima g))) gauges) );
          ("sim", sim);
        ]
       @ stats_fields))

(* ------------------------------------------------------------------ *)
(* Per-call cost of the leaf layers, with inputs shaped like the workload *)

(* Seconds per call: the median of five rounds, each of as many calls as
   take at least 20 ms. *)
let per_call f =
  let round iters =
    let s = wall () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    wall () -. s
  in
  let rec calibrate iters = if round iters >= 0.02 then iters else calibrate (2 * iters) in
  let iters = calibrate 1 in
  let samples = Array.init 5 (fun _ -> round iters /. float_of_int iters) in
  Array.sort compare samples;
  samples.(2)

let micro_mode w ~batch ~epoch_sns ~policy_bytes ~msg_bytes =
  let config = Core.Config.default_for w.protocol ~n:w.n in
  let sig_data =
    if config.Core.Config.client_signatures then Proto.Request.Presumed true
    else Proto.Request.Unsigned
  in
  let reqs =
    Array.init (max 1 batch) (fun i ->
        Proto.Request.make ~client:(100_000 + (i mod 2048)) ~ts:(i / 2048)
          ~payload_size:config.Core.Config.request_payload ~sig_data ~submitted_at:0 ())
  in
  let batch_s = per_call (fun () -> Proto.Batch.make reqs) in
  let leaves = Array.init (max 1 epoch_sns) Iss_crypto.Hash.of_int in
  let merkle_s = per_call (fun () -> Iss_crypto.Merkle.root leaves) in
  let kp = Iss_crypto.Signature.genkey ~id:1 in
  let material =
    Proto.Message.checkpoint_material ~epoch:7 ~max_sn:(8 * epoch_sns)
      ~root:(Iss_crypto.Merkle.root leaves) ~req_count:123_456
      ~policy:(String.make policy_bytes 'p')
  in
  let sig_ = Iss_crypto.Signature.sign kp material in
  let pk = Iss_crypto.Signature.public kp in
  let verify_s = per_call (fun () -> Iss_crypto.Signature.verify pk material sig_) in
  (* Network: all-to-all multicast rounds over the workload's WAN
     placement, no-op handlers, drained through a fresh engine. *)
  let engine = Engine.create () in
  let net = Sim.Network.create engine ~rng:(Sim.Rng.create ~seed:3L) () in
  let placement = Sim.Topology.assign_uniform ~n:w.n in
  for id = 0 to w.n - 1 do
    Sim.Network.add_endpoint net ~id ~category:Sim.Network.Node ~datacenter:placement.(id)
      ~handler:(fun ~src:_ ~size:_ () -> ())
  done;
  let peers = Array.init w.n (fun src -> List.filter (( <> ) src) (List.init w.n Fun.id)) in
  let round () =
    for src = 0 to w.n - 1 do
      Sim.Network.multicast net ~src ~dsts:peers.(src) ~size:msg_bytes ()
    done;
    Engine.run engine
  in
  round ();
  let msgs0 = Sim.Network.messages_sent net and ev0 = Engine.events_executed engine in
  let net_s = per_call round /. float_of_int (w.n * (w.n - 1)) in
  let msgs = Sim.Network.messages_sent net - msgs0 and evs = Engine.events_executed engine - ev0 in
  print_json
    (J.Obj
       [
         ("batch_digest_us", J.Float (batch_s *. 1e6));
         ("merkle_root_us", J.Float (merkle_s *. 1e6));
         ("verify_us", J.Float (verify_s *. 1e6));
         ("net_ns_per_msg", J.Float (net_s *. 1e9));
         ("net_events_per_msg", J.Float (float_of_int evs /. float_of_int (max 1 msgs)));
       ])

(* ------------------------------------------------------------------ *)
(* Self-tests *)

let check name ok = if not ok then failwith ("self-test failed: " ^ name)

(* Pins the goodput and outage definitions on synthetic series. *)
let selftest_definitions () =
  (* 8,000 req/s for 16 s, reply quorums in one burst every 4 s. *)
  let submits = Array.init 128_000 (fun i -> i * 125_000) in
  let completions = List.init 4 (fun k -> (Time_ns.sec (4 * (k + 1)), 32_000)) in
  check "burst goodput" (goodput ~completed:128_000 ~window_s:16.0 = 8000.0);
  check "burst outage" (outage ~submits ~completions = Time_ns.sec 4);
  (* The 1-s-bin mean the figures use reads low on the same series. *)
  let series = Sim.Metrics.Series.create ~bin:(Time_ns.sec 1) in
  List.iter (fun (at, k) -> Sim.Metrics.Series.add series ~at (float_of_int k)) completions;
  let bins = Sim.Metrics.Series.rate_per_sec series ~until:(Time_ns.sec 16) in
  let bin_mean = Array.fold_left ( +. ) 0.0 bins /. float_of_int (Array.length bins) in
  check "burst bin mean differs" (bin_mean < 8000.0);
  (* Idle time with nothing outstanding is not an outage. *)
  let burst from = Array.init 10 (fun i -> from + Time_ns.ms (100 * i)) in
  let submits = Array.append (burst 0) (burst (Time_ns.sec 10)) in
  let completions = [ (Time_ns.sec 2, 10); (Time_ns.sec 12, 10) ] in
  check "idle gap" (outage ~submits ~completions = Time_ns.sec 2);
  (* Outstanding requests at a completion keep the gap open from it. *)
  let completions = [ (Time_ns.ms 500, 4); (Time_ns.sec 3, 6); (Time_ns.sec 12, 10) ] in
  check "partial completion" (outage ~submits ~completions = Time_ns.ms 2500)

(* A sliced run and a single [Engine.run] give identical simulated outputs. *)
let selftest_slicing () =
  let w =
    {
      name = "selftest";
      protocol = Core.Config.PBFT;
      n = 4;
      rate = 400.0;
      window_s = 4.0;
      scenario = None;
      trace_sample = 1;
    }
  in
  let go ~sliced =
    let env = make_env w ~seed:5L in
    let c = env.cluster in
    let checker =
      Conform.Checker.create ~n:w.n ~reply_quorum:(Cluster.reply_quorum c)
        ~window:(Cluster.config c).Core.Config.client_watermark_window
    in
    observe env ~also_submit:(Conform.Checker.note_submitted checker)
      ~also_deliver:(Conform.Checker.note_delivery checker);
    drive ~sliced env;
    (match Conform.Checker.finalize checker with
    | Ok _ -> ()
    | Error e -> failwith ("self-test conformance: " ^ e));
    (J.to_string (sim_outputs env), Conform.Checker.fingerprint checker)
  in
  let single = go ~sliced:false and sliced = go ~sliced:true in
  check "sliced run = single run" (single = sliced)

let selftest_mode () =
  selftest_definitions ();
  selftest_slicing ();
  print_json (J.Obj [ ("selftest", J.Bool true) ])

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: iss_bench selftest | setup W SEED | run W SEED [--gc]\n\
    \       | traced W SEED | micro W BATCH EPOCH_SNS POLICY_BYTES MSG_BYTES";
  exit 2

let () =
  let seed s = Int64.of_string s in
  match List.tl (Array.to_list Sys.argv) with
  | [ "selftest" ] -> selftest_mode ()
  | [ "setup"; w; s ] -> setup_mode (find_workload w) ~seed:(seed s)
  | [ "run"; w; s ] -> run_mode (find_workload w) ~seed:(seed s) ~gc:false
  | [ "run"; w; s; "--gc" ] -> run_mode (find_workload w) ~seed:(seed s) ~gc:true
  | [ "traced"; w; s ] -> traced_mode (find_workload w) ~seed:(seed s)
  | [ "micro"; w; batch; epoch_sns; policy_bytes; msg_bytes ] ->
      micro_mode (find_workload w) ~batch:(int_of_string batch) ~epoch_sns:(int_of_string epoch_sns)
        ~policy_bytes:(int_of_string policy_bytes) ~msg_bytes:(int_of_string msg_bytes)
  | _ -> usage ()

(* The invariant checker (DESIGN.md §9).

   Consumes the raw per-node delivery stream plus the submitted workload and
   checks the observed behaviour against the reference model of an idealized
   atomic broadcast:

   - agreement / total order: every node that delivers sequence number [sn]
     delivers the same batch with the same first request sequence number,
     and each node's delivered [sn]s are strictly increasing;
   - no fabrication: every delivered request was submitted;
   - exactly-once: no request is ordered at two log positions or twice in
     one batch.  Per node this follows: a node's positions strictly
     increase and each agrees with the position's first-observed batch, so
     a node delivering a request twice delivered two positions holding it;
   - no delivered-then-shed: a node never sheds a request whose ordering
     position it has delivered;
   - Eq. (2) numbering: request sequence numbers chain exactly across the
     observed log positions, starting at 0.  (Positions holding ⊥ or an
     empty keep-alive batch deliver nothing and are never observed; they
     carry zero requests, so they are transparent to the chain.)
   - completeness: every submitted request is ordered and reaches its reply
     quorum, and each client's delivered timestamps form the full
     contiguous range it submitted;
   - watermark window closure: a request with timestamp [t] can only be
     ordered after timestamp [t - window] of the same client (§3.7's
     client watermark windows, checked globally post hoc).

   [Cluster.enable_invariants] feeds one checker from the cluster's own
   hooks; a standalone checker can be fed from the cluster's observers. *)

type entry = {
  e_digest : Iss_crypto.Hash.t;
  e_frs : int;  (* first request sequence number (Eq. 2 cumulative count) *)
  e_len : int;
  mutable e_nodes : int;  (* how many nodes delivered this sn *)
}

type stats = {
  sns : int;  (* distinct log positions delivered somewhere *)
  requests : int;  (* distinct requests ordered *)
  quorum_requests : int;  (* requests whose position reached the reply quorum *)
  per_node_delivered : int array;  (* requests delivered by each node *)
  shed : int;  (* flow-control sheds observed, all correct nodes *)
  gave_up : int;  (* requests whose client exhausted its retry budget *)
}

type t = {
  reply_quorum : int;
  window : int;
  submitted : Proto.Request.t Sim.Int_tbl.t;  (* id_key -> request *)
  global : (int, entry) Hashtbl.t;  (* sn -> first-observed content *)
  req_sn : int Sim.Int_tbl.t;  (* id_key -> sn of global appearance *)
  last_sn : int array;  (* per node, -1 before any delivery *)
  last_frs_end : int array;  (* per node: frs + len of the last delivery *)
  delivered_sns : Sim.Flat_tbl.t array;  (* per correct node: positions it delivered *)
  delivered_counts : int array;
  byzantine : bool array;  (* invariants quantify over correct nodes only *)
  shed_counts : int array;  (* flow-control sheds per node *)
  gave_up : unit Sim.Int_tbl.t;  (* id_key of abandoned requests *)
  mutable max_sn : int;
  mutable violation : string option;
}

let create ~n ~reply_quorum ~window =
  {
    reply_quorum;
    window;
    submitted = Sim.Int_tbl.create 4096;
    global = Hashtbl.create 4096;
    req_sn = Sim.Int_tbl.create 4096;
    last_sn = Array.make n (-1);
    last_frs_end = Array.make n 0;
    delivered_sns = Array.init n (fun _ -> Sim.Flat_tbl.create ~fields:0);
    delivered_counts = Array.make n 0;
    byzantine = Array.make n false;
    shed_counts = Array.make n 0;
    gave_up = Sim.Int_tbl.create 64;
    max_sn = -1;
    violation = None;
  }

let set_byzantine t node = t.byzantine.(node) <- true

let fail t fmt = Printf.ksprintf (fun msg -> if t.violation = None then t.violation <- Some msg) fmt

let note_submitted t (r : Proto.Request.t) =
  Sim.Int_tbl.replace t.submitted (Proto.Request.id_key r.Proto.Request.id) r

let note_shed t ~node (r : Proto.Request.t) =
  if not t.byzantine.(node) then begin
    t.shed_counts.(node) <- t.shed_counts.(node) + 1;
    (* A node that already delivered this request holds it in its dedup
       state: a later copy must be absorbed as a duplicate, never counted
       against the bucket and shed.  It delivered the request exactly when
       it delivered the request's ordering position; a position it skipped
       through a checkpoint jump does not count. *)
    match Sim.Int_tbl.find_opt t.req_sn (Proto.Request.id_key r.Proto.Request.id) with
    | Some sn when Sim.Flat_tbl.mem t.delivered_sns.(node) sn ->
        fail t "node %d shed request (client %d, ts %d) it had already delivered" node
          r.id.Proto.Request.client r.id.Proto.Request.ts
    | Some _ | None -> ()
  end

let note_gave_up t (r : Proto.Request.t) =
  Sim.Int_tbl.replace t.gave_up (Proto.Request.id_key r.Proto.Request.id) ()

let note_delivery t ~node ~sn ~first_request_sn batch =
  if t.violation = None then
    if t.byzantine.(node) then begin
      (* A Byzantine node's local log is outside the specification: keep its
         progress counters (they feed the fingerprint, so instrumented and
         bare runs still compare bit-exactly) but quantify every invariant
         over correct nodes only, and never let its deliveries seed the
         first-observed baseline for a position. *)
      let len = Proto.Batch.length batch in
      if sn > t.last_sn.(node) then t.last_sn.(node) <- sn;
      t.last_frs_end.(node) <- first_request_sn + len;
      t.delivered_counts.(node) <- t.delivered_counts.(node) + len
    end
    else begin
    let len = Proto.Batch.length batch in
    (* Per-node total order: strictly increasing delivery positions.  (Gaps
       are legal: a checkpoint jump skips positions covered by the adopted
       snapshot.) *)
    if sn <= t.last_sn.(node) then
      fail t "node %d delivered sn %d after sn %d (out of order)" node sn t.last_sn.(node);
    (* Eq. (2) per-node continuity across adjacent positions. *)
    if sn = t.last_sn.(node) + 1 && t.last_sn.(node) >= 0
       && first_request_sn <> t.last_frs_end.(node)
    then
      fail t "node %d: sn %d numbers requests from %d, expected %d (Eq. 2 discontinuity)"
        node sn first_request_sn t.last_frs_end.(node);
    t.last_sn.(node) <- sn;
    t.last_frs_end.(node) <- first_request_sn + len;
    t.delivered_counts.(node) <- t.delivered_counts.(node) + len;
    ignore (Sim.Flat_tbl.add t.delivered_sns.(node) sn);
    if sn > t.max_sn then t.max_sn <- sn;
    (* Cross-node agreement at this position.  A node that agrees delivers
       exactly the requests of the first-observed batch, so the per-request
       checks run once per position, on its first appearance. *)
    let digest = Proto.Proposal.digest (Proto.Proposal.Batch batch) in
    match Hashtbl.find_opt t.global sn with
    | Some e ->
        e.e_nodes <- e.e_nodes + 1;
        if not (Iss_crypto.Hash.equal e.e_digest digest) then
          fail t "node %d delivered a different batch at sn %d (%s vs %s)" node sn
            (Iss_crypto.Hash.short digest) (Iss_crypto.Hash.short e.e_digest);
        if e.e_frs <> first_request_sn then
          fail t "node %d numbered sn %d from %d, another node used %d" node sn
            first_request_sn e.e_frs
    | None ->
        Hashtbl.replace t.global sn { e_digest = digest; e_frs = first_request_sn; e_len = len; e_nodes = 1 };
        (* First global appearance: no fabrication, and record where each
           request is ordered. *)
        Proto.Batch.iter
          (fun (r : Proto.Request.t) ->
            let key = Proto.Request.id_key r.Proto.Request.id in
            if not (Sim.Int_tbl.mem t.submitted key) then
              fail t "node %d delivered request (client %d, ts %d) that was never submitted" node
                r.id.Proto.Request.client r.id.Proto.Request.ts;
            match Sim.Int_tbl.find_opt t.req_sn key with
            | Some sn0 when sn0 = sn ->
                fail t "request (client %d, ts %d) appears twice in the batch at sn %d"
                  r.id.Proto.Request.client r.id.Proto.Request.ts sn
            | Some sn0 ->
                fail t "request (client %d, ts %d) ordered at both sn %d and sn %d"
                  r.id.Proto.Request.client r.id.Proto.Request.ts sn0 sn
            | None -> Sim.Int_tbl.replace t.req_sn key sn)
          batch
  end

(* ------------------------------------------------------------------ *)
(* End-of-run structural checks *)

let check_log_structure t =
  (* Gaps between observed positions are legal — ⊥ entries and empty
     keep-alive batches deliver nothing, so they never reach the observer —
     but they carry zero requests, so Eq. (2) numbering must chain exactly
     across the observed positions, starting at 0. *)
  if t.max_sn >= 0 then begin
    let sns = Hashtbl.fold (fun sn _ acc -> sn :: acc) t.global [] in
    let sns = List.sort compare sns in
    let expected = ref 0 in
    List.iter
      (fun sn ->
        let e = Hashtbl.find t.global sn in
        if e.e_frs <> !expected then
          fail t "sn %d numbers requests from %d, expected %d (Eq. 2 discontinuity)" sn e.e_frs
            !expected;
        expected := e.e_frs + e.e_len)
      sns
  end

let check_liveness t =
  (* The example is the first missing request in (client, ts) order, not
     the table's hash order. *)
  let missing = ref 0 and unquorate = ref 0 and example = ref None in
  let note (r : Proto.Request.t) =
    match !example with
    | Some (e : Proto.Request.t) when Proto.Request.compare_id e.id r.id <= 0 -> ()
    | Some _ | None -> example := Some r
  in
  Sim.Int_tbl.iter
    (fun key (r : Proto.Request.t) ->
      if not (Sim.Int_tbl.mem t.gave_up key) then
      match Sim.Int_tbl.find_opt t.req_sn key with
      | None ->
          incr missing;
          note r
      | Some sn -> (
          match Hashtbl.find_opt t.global sn with
          | Some e when e.e_nodes >= t.reply_quorum -> ()
          | _ ->
              incr unquorate;
              note r))
    t.submitted;
  if !missing > 0 || !unquorate > 0 then
    let r = Option.get !example in
    fail t "%d submitted requests never ordered, %d short of the reply quorum of %d (e.g. client %d ts %d)"
      !missing !unquorate t.reply_quorum r.id.Proto.Request.client r.id.Proto.Request.ts

let check_clients t =
  (* Per-client view: delivered timestamps must form the exact contiguous
     range the client submitted, and ordering positions must respect the
     watermark window — ts [k] can only be ordered after ts [k - window]. *)
  let clients : (int, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let max_ts : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Sim.Int_tbl.iter
    (fun key (r : Proto.Request.t) ->
      let c = r.id.Proto.Request.client and ts = r.id.Proto.Request.ts in
      (match Hashtbl.find_opt max_ts c with
      | Some m when m >= ts -> ()
      | _ -> Hashtbl.replace max_ts c ts);
      match Sim.Int_tbl.find_opt t.req_sn key with
      | None -> ()  (* already reported by check_liveness *)
      | Some sn ->
          let tbl =
            match Hashtbl.find_opt clients c with
            | Some tbl -> tbl
            | None ->
                let tbl = Hashtbl.create 256 in
                Hashtbl.replace clients c tbl;
                tbl
          in
          Hashtbl.replace tbl ts sn)
    t.submitted;
  Hashtbl.iter
    (fun c tbl ->
      let m = try Hashtbl.find max_ts c with Not_found -> -1 in
      for ts = 0 to m do
        match Hashtbl.find_opt tbl ts with
        | None ->
            (* A hole is legal exactly where the client gave the request up:
               the explicit give-up terminal state of the overload run. *)
            if
              t.violation = None
              && not
                   (Sim.Int_tbl.mem t.gave_up
                      (Proto.Request.id_key { Proto.Request.client = c; ts }))
            then
              fail t "client %d: ts %d missing from the delivered range [0, %d]" c ts m
        | Some sn ->
            if ts >= t.window then begin
              match Hashtbl.find_opt tbl (ts - t.window) with
              | Some sn' when sn' < sn -> ()
              | Some sn' ->
                  fail t
                    "client %d: ts %d ordered at sn %d but ts %d (one window below) only at sn \
                     %d — watermark window violated"
                    c ts sn (ts - t.window) sn'
              | None -> ()
            end
      done)
    clients

let finalize t =
  check_log_structure t;
  check_liveness t;
  check_clients t;
  match t.violation with
  | Some msg -> Error msg
  | None ->
      let quorum_requests =
        Hashtbl.fold
          (fun _ e acc -> if e.e_nodes >= t.reply_quorum then acc + e.e_len else acc)
          t.global 0
      in
      Ok
        {
          sns = Hashtbl.length t.global;
          requests = Sim.Int_tbl.length t.req_sn;
          quorum_requests;
          per_node_delivered = Array.copy t.delivered_counts;
          shed = Array.fold_left ( + ) 0 t.shed_counts;
          gave_up = Sim.Int_tbl.length t.gave_up;
        }

let violation t = t.violation

(* A digest of everything the checker observed, for determinism and
   instrumented-vs-bare bit-identity comparisons: the full ordered log
   (digest + numbering per position) plus each node's delivery progress. *)
let fingerprint t =
  let buf = Buffer.create 8192 in
  for sn = 0 to t.max_sn do
    match Hashtbl.find_opt t.global sn with
    | Some e ->
        Buffer.add_string buf (Iss_crypto.Hash.short e.e_digest);
        Buffer.add_string buf (Printf.sprintf ":%d:%d:%d;" e.e_frs e.e_len e.e_nodes)
    | None -> Buffer.add_string buf "hole;"
  done;
  Array.iteri
    (fun node last ->
      Buffer.add_string buf
        (Printf.sprintf "n%d=%d@%d;" node t.delivered_counts.(node) last))
    t.last_sn;
  (* Overload accounting enters the digest only when it fired: scenarios
     without flow control keep their pre-flow-control fingerprints. *)
  let shed_total = Array.fold_left ( + ) 0 t.shed_counts in
  if shed_total > 0 || Sim.Int_tbl.length t.gave_up > 0 then begin
    Buffer.add_string buf (Printf.sprintf "gaveup=%d;" (Sim.Int_tbl.length t.gave_up));
    Array.iteri
      (fun node shed -> Buffer.add_string buf (Printf.sprintf "shed%d=%d;" node shed))
      t.shed_counts
  end;
  Iss_crypto.Sha256.digest_hex (Buffer.contents buf)

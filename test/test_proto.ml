(* Tests for the proto layer: ids, batches, proposals, message sizes. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let req ~client ~ts = Proto.Request.make ~client ~ts ~submitted_at:0 ()

(* ------------------------------------------------------------------ *)
(* Quorum arithmetic *)

let test_quorums () =
  (* n = 3f+1 families. *)
  List.iter
    (fun (n, f) ->
      check_int (Printf.sprintf "f for n=%d" n) f (Proto.Ids.max_faulty ~n);
      check_int (Printf.sprintf "quorum for n=%d" n) (n - f) (Proto.Ids.quorum ~n);
      (* Two quorums always intersect in at least f+1 nodes. *)
      let q = Proto.Ids.quorum ~n in
      check_bool "quorum intersection beyond faulty" true ((2 * q) - n >= f + 1))
    [ (4, 1); (7, 2); (10, 3); (13, 4); (32, 10); (128, 42) ];
  check_int "majority of 4" 3 (Proto.Ids.majority ~n:4);
  check_int "majority of 5" 3 (Proto.Ids.majority ~n:5)

(* ------------------------------------------------------------------ *)
(* Requests *)

let test_request_id_key_injective () =
  let seen = Hashtbl.create 64 in
  for client = 0 to 40 do
    for ts = 0 to 40 do
      let k = Proto.Request.id_key { Proto.Request.client; ts } in
      (match Hashtbl.find_opt seen k with
      | Some (c', t') -> Alcotest.failf "collision: (%d,%d) vs (%d,%d)" client ts c' t'
      | None -> ());
      Hashtbl.replace seen k (client, ts)
    done
  done

(* The benchmark's live-id layout: 2,048 clients (ids 100,000 on) with 16
   consecutive timestamps each.  Stdlib's generic hash folds these keys into
   about 2,000 buckets; the table for id keys must spread them. *)
let test_int_tbl_spreads_id_keys () =
  let tbl = Sim.Int_tbl.create 1024 in
  for client = 100_000 to 102_047 do
    for ts = 0 to 15 do
      Sim.Int_tbl.replace tbl (Proto.Request.id_key { Proto.Request.client; ts }) ()
    done
  done;
  let st = Sim.Int_tbl.stats tbl in
  check_int "bindings" 32_768 st.Hashtbl.num_bindings;
  if st.Hashtbl.max_bucket_length > 8 then
    Alcotest.failf "longest chain %d over %d buckets (want <= 8)" st.Hashtbl.max_bucket_length
      st.Hashtbl.num_buckets

type tbl_op = Add of int * int | Replace of int * int | Remove of int | Mem of int

(* Int_tbl against an association-list model: newest binding first, so
   [add] shadows, [replace] and [remove] touch the newest binding. *)
let prop_int_tbl_model =
  let key =
    QCheck.Gen.(
      oneof
        [
          map2 (fun client ts -> Proto.Request.id_key { Proto.Request.client; ts })
            (int_range 100_000 100_007) (int_range 0 7);
          int_range (-8) 8;
          int;
        ])
  in
  let op =
    QCheck.Gen.(
      oneof
        [
          map2 (fun k v -> Add (k, v)) key small_nat;
          map2 (fun k v -> Replace (k, v)) key small_nat;
          map (fun k -> Remove k) key;
          map (fun k -> Mem k) key;
        ])
  in
  QCheck.Test.make ~name:"Int_tbl agrees with an assoc-list model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 200) op))
    (fun ops ->
      let tbl = Sim.Int_tbl.create 1 in
      let model =
        List.fold_left
          (fun m op ->
            let m =
              match op with
              | Add (k, v) ->
                  Sim.Int_tbl.add tbl k v;
                  (k, v) :: m
              | Replace (k, v) ->
                  Sim.Int_tbl.replace tbl k v;
                  if List.mem_assoc k m then
                    let rec go = function
                      | (k', _) :: rest when k' = k -> (k, v) :: rest
                      | b :: rest -> b :: go rest
                      | [] -> []
                    in
                    go m
                  else (k, v) :: m
              | Remove k ->
                  Sim.Int_tbl.remove tbl k;
                  List.remove_assoc k m
              | Mem k ->
                  if Sim.Int_tbl.mem tbl k <> List.mem_assoc k m then
                    QCheck.Test.fail_reportf "mem %d disagrees" k;
                  m
            in
            if Sim.Int_tbl.length tbl <> List.length m then
              QCheck.Test.fail_reportf "length %d, model %d" (Sim.Int_tbl.length tbl)
                (List.length m);
            m)
          [] ops
      in
      List.for_all
        (fun (k, _) ->
          Sim.Int_tbl.find_all tbl k
          = List.filter_map (fun (k', v) -> if k' = k then Some v else None) model)
        model)

(* The same layout in the flat table: linear probing at up to half load
   must keep every key within a short scan of its home slot. *)
let test_flat_tbl_probe_bound () =
  let tbl = Sim.Flat_tbl.create ~fields:1 in
  for client = 100_000 to 102_047 do
    for ts = 0 to 15 do
      ignore (Sim.Flat_tbl.add tbl (Proto.Request.id_key { Proto.Request.client; ts }))
    done
  done;
  check_int "entries" 32_768 (Sim.Flat_tbl.length tbl);
  let longest = Sim.Flat_tbl.max_probe tbl in
  if longest > 12 then Alcotest.failf "longest probe sequence %d (want <= 12)" longest

type flat_op = Set of int * int | Del of int | Clear

(* Flat_tbl against an association-list model.  Half the keys hash to the
   last two slots of the 8-slot starting table, so clusters wrap around the
   array end and deletions inside them exercise the backward shift. *)
let prop_flat_tbl_model =
  let keys = Array.init 40 (fun i -> i - 8) in
  let wrapping = List.filter (fun k -> Sim.Int_tbl.hash k land 7 >= 6) (List.init 200 Fun.id) in
  let key =
    QCheck.Gen.(oneof [ oneofa keys; oneofl wrapping ])
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun k v -> Set (k, v)) key small_nat);
          (4, map (fun k -> Del k) key);
          (1, return Clear);
        ])
  in
  QCheck.Test.make ~name:"Flat_tbl agrees with an assoc-list model" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_range 0 120) op))
    (fun ops ->
      let tbl = Sim.Flat_tbl.create ~fields:2 in
      let check m =
        if Sim.Flat_tbl.length tbl <> List.length m then
          QCheck.Test.fail_reportf "length %d, model %d" (Sim.Flat_tbl.length tbl)
            (List.length m);
        List.iter
          (fun k ->
            let slot = Sim.Flat_tbl.find tbl k in
            match List.assoc_opt k m with
            | None -> if slot >= 0 then QCheck.Test.fail_reportf "removed key %d found" k
            | Some v ->
                if slot < 0 then QCheck.Test.fail_reportf "key %d lost" k;
                if Sim.Flat_tbl.get tbl slot 0 <> v || Sim.Flat_tbl.get tbl slot 1 <> -v then
                  QCheck.Test.fail_reportf "key %d: wrong fields" k)
          (Array.to_list keys @ wrapping)
      in
      ignore
        (List.fold_left
           (fun m op ->
             let m =
               match op with
               | Set (k, v) ->
                   let fresh = not (List.mem_assoc k m) in
                   let slot = Sim.Flat_tbl.add tbl k in
                   if fresh && (Sim.Flat_tbl.get tbl slot 0, Sim.Flat_tbl.get tbl slot 1) <> (0, 0)
                   then QCheck.Test.fail_reportf "new key %d: fields not zero" k;
                   Sim.Flat_tbl.set tbl slot 0 v;
                   Sim.Flat_tbl.set tbl slot 1 (-v);
                   (k, v) :: List.remove_assoc k m
               | Del k ->
                   Sim.Flat_tbl.remove tbl k;
                   List.remove_assoc k m
               | Clear ->
                   Sim.Flat_tbl.clear tbl;
                   []
             in
             check m;
             m)
           [] ops);
      true)

let test_request_wire_size () =
  let r = req ~client:1 ~ts:1 in
  (* 500 payload + 16 id + 64 signature. *)
  check_int "default request wire size" 580 (Proto.Request.wire_size r);
  let unsigned = Proto.Request.make ~client:1 ~ts:1 ~sig_data:Proto.Request.Unsigned ~submitted_at:0 () in
  check_int "unsigned request smaller" 516 (Proto.Request.wire_size unsigned)

(* ------------------------------------------------------------------ *)
(* Batches *)

let test_batch_digest_sensitivity () =
  let b1 = Proto.Batch.make [| req ~client:1 ~ts:0; req ~client:1 ~ts:1 |] in
  let b2 = Proto.Batch.make [| req ~client:1 ~ts:0; req ~client:1 ~ts:1 |] in
  let b3 = Proto.Batch.make [| req ~client:1 ~ts:1; req ~client:1 ~ts:0 |] in
  let b4 = Proto.Batch.make [| req ~client:1 ~ts:0 |] in
  let d = Proto.Batch.digest in
  check_bool "equal content equal digest" true (Iss_crypto.Hash.equal (d b1) (d b2));
  check_bool "order matters" false (Iss_crypto.Hash.equal (d b1) (d b3));
  check_bool "length matters" false (Iss_crypto.Hash.equal (d b1) (d b4))

let test_batch_size_accounting () =
  let reqs = Array.init 10 (fun i -> req ~client:2 ~ts:i) in
  let b = Proto.Batch.make reqs in
  check_int "10 x 580 + header" ((10 * 580) + 16) (Proto.Batch.wire_size b);
  check_int "length" 10 (Proto.Batch.length b);
  check_bool "not empty" false (Proto.Batch.is_empty b);
  check_bool "empty batch is empty" true (Proto.Batch.is_empty Proto.Batch.empty)

(* ------------------------------------------------------------------ *)
(* Proposals *)

let test_proposal_nil_distinct () =
  let b = Proto.Proposal.Batch (Proto.Batch.make [| req ~client:1 ~ts:0 |]) in
  check_bool "nil is nil" true (Proto.Proposal.is_nil Proto.Proposal.Nil);
  check_bool "batch is not nil" false (Proto.Proposal.is_nil b);
  check_bool "digests differ" false
    (Iss_crypto.Hash.equal (Proto.Proposal.digest Proto.Proposal.Nil) (Proto.Proposal.digest b));
  (* The empty batch and ⊥ are different values with different digests —
     an empty keep-alive batch occupies its position, ⊥ marks an abort. *)
  check_bool "empty batch ≠ nil" false
    (Iss_crypto.Hash.equal
       (Proto.Proposal.digest (Proto.Proposal.Batch Proto.Batch.empty))
       (Proto.Proposal.digest Proto.Proposal.Nil))

(* ------------------------------------------------------------------ *)
(* Message sizes *)

let test_message_sizes_monotone () =
  let batch k = Proto.Batch.make (Array.init k (fun i -> req ~client:3 ~ts:i)) in
  let preprepare k =
    Proto.Message.Pbft
      {
        Proto.Pbft_msg.instance = 0;
        body = Proto.Pbft_msg.Preprepare { view = 0; sn = 0; proposal = Proto.Proposal.Batch (batch k) };
      }
  in
  check_bool "bigger batch, bigger message" true
    (Proto.Message.wire_size (preprepare 100) > Proto.Message.wire_size (preprepare 10));
  let prepare =
    Proto.Message.Pbft
      {
        Proto.Pbft_msg.instance = 0;
        body = Proto.Pbft_msg.Prepare { view = 0; sn = 0; digest = Iss_crypto.Hash.of_int 1 };
      }
  in
  check_bool "votes are small" true (Proto.Message.wire_size prepare < 100);
  check_bool "preprepare carries the payload" true
    (Proto.Message.wire_size (preprepare 10) > 10 * 500)

let test_hotstuff_msg_sizes () =
  let share = Iss_crypto.Threshold.sign_share (Iss_crypto.Threshold.setup ~n:4 ~t:3) ~signer:0 "m" in
  let vote =
    Proto.Message.Hotstuff
      {
        Proto.Hotstuff_msg.instance = 0;
        body = Proto.Hotstuff_msg.Vote { view = 0; digest = Iss_crypto.Hash.of_int 0; share };
      }
  in
  (* Constant-size votes: the linear-message-complexity property. *)
  check_bool "hotstuff vote ~100B" true (Proto.Message.wire_size vote < 150)

let test_checkpoint_material_distinct () =
  let root = Iss_crypto.Hash.of_int 7 in
  let mk ~epoch ~max_sn ~req_count ~policy =
    Proto.Message.checkpoint_material ~epoch ~max_sn ~root ~req_count ~policy
  in
  let m1 = mk ~epoch:1 ~max_sn:255 ~req_count:100 ~policy:"blacklist:-1,-1" in
  let m2 = mk ~epoch:2 ~max_sn:255 ~req_count:100 ~policy:"blacklist:-1,-1" in
  let m3 = mk ~epoch:1 ~max_sn:511 ~req_count:100 ~policy:"blacklist:-1,-1" in
  let m4 = mk ~epoch:1 ~max_sn:255 ~req_count:101 ~policy:"blacklist:-1,-1" in
  let m5 = mk ~epoch:1 ~max_sn:255 ~req_count:100 ~policy:"blacklist:7,-1" in
  check_bool "epoch in material" false (String.equal m1 m2);
  check_bool "max_sn in material" false (String.equal m1 m3);
  check_bool "req_count in material" false (String.equal m1 m4);
  check_bool "policy in material" false (String.equal m1 m5)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "proto"
    [
      ("ids", [ Alcotest.test_case "quorum arithmetic" `Quick test_quorums ]);
      ( "requests",
        [
          Alcotest.test_case "id_key injective" `Quick test_request_id_key_injective;
          Alcotest.test_case "Int_tbl spreads id keys" `Quick test_int_tbl_spreads_id_keys;
          QCheck_alcotest.to_alcotest prop_int_tbl_model;
          Alcotest.test_case "Flat_tbl probe bound on id keys" `Quick test_flat_tbl_probe_bound;
          QCheck_alcotest.to_alcotest prop_flat_tbl_model;
          Alcotest.test_case "wire sizes" `Quick test_request_wire_size;
        ] );
      ( "batches",
        [
          Alcotest.test_case "digest sensitivity" `Quick test_batch_digest_sensitivity;
          Alcotest.test_case "size accounting" `Quick test_batch_size_accounting;
        ] );
      ("proposals", [ Alcotest.test_case "nil distinct" `Quick test_proposal_nil_distinct ]);
      ( "messages",
        [
          Alcotest.test_case "sizes monotone" `Quick test_message_sizes_monotone;
          Alcotest.test_case "hotstuff vote size" `Quick test_hotstuff_msg_sizes;
          Alcotest.test_case "checkpoint material" `Quick test_checkpoint_material_distinct;
        ] );
    ]

(** The invariant checker (DESIGN.md §9): the one implementation of the
    properties ISS guarantees.

    Checks the raw streams of one run — every workload submission, every
    per-node batch delivery, every flow-control shed and give-up — against
    the reference model of an idealized atomic broadcast.
    {!Cluster.enable_invariants} feeds one from the cluster's hooks; a
    standalone checker can be fed from the cluster's observers.

    Checked properties: cross-node agreement and per-node total order,
    no fabrication, exactly-once (no request at two log positions or twice
    in one batch, which with agreement and total order gives exactly-once
    per node), no delivered-then-shed, Eq. (2) request numbering chaining
    across observed log positions (⊥ and empty keep-alive batches deliver
    nothing and are transparent to the chain), liveness against the reply
    quorum, per-client delivered-range completeness, and client watermark
    window closure (§3.7). *)

type t

type stats = {
  sns : int;  (** distinct log positions delivered somewhere *)
  requests : int;  (** distinct requests ordered *)
  quorum_requests : int;  (** requests whose position reached the reply quorum *)
  per_node_delivered : int array;  (** requests delivered by each node *)
  shed : int;  (** flow-control sheds observed, all correct nodes *)
  gave_up : int;  (** requests whose client exhausted its retry budget *)
}

val create : n:int -> reply_quorum:int -> window:int -> t
(** [window] is the configuration's [client_watermark_window]. *)

val set_byzantine : t -> int -> unit
(** Exempt a node from the checked invariants: agreement, exactly-once,
    fabrication and Eq. (2) quantify over {e correct} nodes only, and a
    Byzantine node's deliveries never seed the first-observed baseline for
    a log position.  Its progress counters still feed {!fingerprint}.  Call
    before the node's first delivery; {!Cluster} forwards every node its
    fault schedule marks. *)

(** Every feed below records a violation (the first one wins) and never
    raises; {!violation} reports it.  {!Cluster} checks after each feed and
    aborts the run at the first one. *)

val note_submitted : t -> Proto.Request.t -> unit
(** A workload-submitted request. *)

val note_delivery : t -> node:int -> sn:int -> first_request_sn:int -> Proto.Batch.t -> unit
(** One node's delivery of the batch at log position [sn]. *)

val note_shed : t -> node:int -> Proto.Request.t -> unit
(** A flow-control shed (not advisory pushback).  Records the shed and
    checks the no delivered-then-shed invariant: a correct node never
    sheds a request it has already delivered, i.e. whose ordering position
    it delivered (its dedup state must absorb the duplicate before
    admission counts it against the bucket). *)

val note_gave_up : t -> Proto.Request.t -> unit
(** A request whose client exhausted its retry budget.  Given-up requests
    become legal terminal states for the liveness and per-client
    completeness checks; the per-client watermark-window check treats the
    hole as transparent. *)

val finalize : t -> (stats, string) result
(** Run the end-of-run structural checks (Eq. 2 global chaining, liveness,
    per-client completeness and window closure) and
    report the first recorded violation, if any.  Call only after the
    engine has run past the schedule's heal time plus the liveness grace
    period. *)

val violation : t -> string option
(** The first recorded violation so far, without running the structural
    checks. *)

val fingerprint : t -> string
(** Hex digest of the complete observed behaviour (ordered log + per-node
    progress) — equal fingerprints mean behaviourally identical runs.  Used
    for the determinism and instrumented-vs-bare bit-identity assertions. *)

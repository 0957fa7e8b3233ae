(** A bucket's pending-request queue (paper §3.2, §3.7).

    Properties the paper requires and this structure provides:
    - {b FIFO}: the oldest request is always proposed first (liveness of the
      induction in the SMR4 proof rests on this);
    - {b removal}: requests leave the queue when proposed or when observed
      committed in someone else's batch;
    - {b resurrection}: a request whose proposal was aborted with ⊥ returns
      at its {e original} position in the arrival order (§3.2 "maintaining
      its reception order").

    The queue is addressed by arrival sequence number alone.  Holding a
    request at most once however often its client retransmits it is the
    node's job: the node keeps the one request index, which maps a request
    id to the arrival seq it was first given, and re-offers a retransmission
    under that same seq, which {!add} then refuses.  Invariant: every request
    in a queue — and every request the node cut from one and has not yet
    seen committed — has an entry in the node's index.

    Internally a circular buffer sorted by seq plus a short sorted list of
    resurrected requests: {!add} and {!cut} are O(1) amortized, {!mem} and
    {!remove} a binary search of the buffer then a scan of the list. *)

type t

val create : unit -> t

val length : t -> int

val total_added : t -> int
(** Requests ever accepted by {!add} (observability counter). *)

val max_occupancy : t -> int
(** High-water mark of {!length} over the queue's lifetime. *)

val add : t -> seq:int -> Proto.Request.t -> bool
(** [add t ~seq r] inserts [r] with arrival-order key [seq] (assigned by the
    caller from a per-node counter).  Returns [false] — and changes
    nothing — when a request with the same seq is already present. *)

val mem : t -> seq:int -> bool

val remove : t -> seq:int -> bool
(** Removes the request held under [seq]; [false] when there is none. *)

val resurrect : t -> seq:int -> Proto.Request.t -> unit
(** Re-insert a previously removed request at arrival key [seq] (its
    original one).  No-op if a request with that seq is present. *)

val cut : t -> max:int -> Proto.Request.t array
(** Removes and returns up to [max] oldest requests — the batch-cutting
    primitive (Algorithm 2, cutBatch). *)

val oldest_seq : t -> int option
(** Arrival key of the oldest pending request (for age-based batching). *)

val clear : t -> unit
(** Drop every pending request (checkpoint jump: the queue may hold requests
    already delivered in the skipped history).  Arrival-key monotonicity and
    the observability counters survive. *)

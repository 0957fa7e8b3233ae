(** Flat open-addressing table from ints (any but [min_int]) to [k] int
    fields: the per-node, per-request host state (DESIGN.md §11).

    Keys and their fields sit interleaved in one unboxed [int array], so a
    lookup reads about one cache line and an insert allocates nothing once
    the table has grown to its traffic.  Slots are found with
    {!Int_tbl.hash} and linear probing; {!remove} shifts the rest of the
    probe cluster back instead of leaving tombstones.  The table starts
    small, doubles at half load and never shrinks, not even on {!clear}.

    Values that are boxed belong in {!Int_tbl}; this table holds ints only. *)

type t

val create : fields:int -> t
(** An empty table whose entries carry [fields] ints each. *)

val length : t -> int

val find : t -> int -> int
(** [find t key] is the slot holding [key], or [-1] when it is absent.  A
    slot stays valid until the next {!add}, {!remove} or {!clear}. *)

val mem : t -> int -> bool

val add : t -> int -> int
(** [add t key] is the slot holding [key], inserting [key] with every field
    [0] when it is absent.  Raises [Invalid_argument] on [min_int]. *)

val get : t -> int -> int -> int
(** [get t slot i] is field [i] of the entry at [slot]. *)

val set : t -> int -> int -> int -> unit
(** [set t slot i v] stores [v] in field [i] of the entry at [slot]. *)

val remove : t -> int -> unit
(** No-op when the key is absent. *)

val clear : t -> unit
(** Drops every entry and keeps the capacity. *)

val max_probe : t -> int
(** The longest probe sequence any present key needs: 1 when every key sits
    in its home slot, 0 for an empty table. *)

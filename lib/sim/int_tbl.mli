(** Int-keyed hash table with a mixing hash: the table for host state keyed
    by {!Proto.Request.id_key} whose values are boxed.

    [Stdlib.Hashtbl.hash] folds an int's high 32 bits onto its low 32 bits
    by XOR.  [id_key] puts the client in bits 31 and up and the timestamp
    below, so that fold leaves roughly [(client lsr 1) lxor ts]: a few
    thousand live clients with small timestamps land in a few thousand
    buckets however large the table grows, and every lookup walks a long
    chain.  This table multiplies the key by an odd 63-bit constant and
    keeps the upper bits of the product instead, which spreads such keys
    evenly (DESIGN.md §11).

    Iteration order differs from [Stdlib.Hashtbl]'s; nothing that affects
    simulated behaviour may depend on it.

    Per-request state whose values are ints lives in {!Flat_tbl} instead,
    which shares this hash; this table is for boxed values. *)

include Hashtbl.S with type key = int

val hash : int -> int
(** The mixing hash: the upper bits of [k * 0x1E3779B97F4A7C15]. *)

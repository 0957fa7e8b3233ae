(* Fibonacci hashing: multiply by 2^64 / golden ratio (truncated to OCaml's
   63-bit ints) and keep the product's upper bits, so every input bit
   reaches the bucket index.  The table masks the low bits of this value. *)
let hash k = (k * 0x1E3779B97F4A7C15) lsr 31

include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash = hash
end)

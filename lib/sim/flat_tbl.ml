(* Slot [i] occupies [data.(i * stride)] (the key, or [empty]) followed by
   its [stride - 1] fields.  A slot index handed to callers is the offset of
   its key. *)

type t = {
  stride : int;
  mutable data : int array;
  mutable mask : int;  (* capacity in slots - 1; capacity is a power of two *)
  mutable count : int;
}

let empty = min_int
let initial_slots = 8

let create ~fields =
  if fields < 0 then invalid_arg "Flat_tbl.create: negative field count";
  let stride = fields + 1 in
  { stride; data = Array.make (initial_slots * stride) empty; mask = initial_slots - 1; count = 0 }

let length t = t.count
let home t key = Int_tbl.hash key land t.mask

(* Offset of the slot holding [key], or of the empty slot that ends its
   probe sequence. *)
let rec locate t key i =
  let base = i * t.stride in
  let k = t.data.(base) in
  if k = key || k = empty then base else locate t key ((i + 1) land t.mask)

let find t key =
  if key = empty then -1
  else
    let base = locate t key (home t key) in
    if t.data.(base) = key then base else -1

let mem t key = find t key >= 0
let get t slot i = t.data.(slot + 1 + i)
let set t slot i v = t.data.(slot + 1 + i) <- v

let grow t =
  let old = t.data and stride = t.stride in
  let slots = 2 * (t.mask + 1) in
  t.data <- Array.make (slots * stride) empty;
  t.mask <- slots - 1;
  for i = 0 to (Array.length old / stride) - 1 do
    let key = old.(i * stride) in
    if key <> empty then Array.blit old (i * stride) t.data (locate t key (home t key)) stride
  done

let rec add t key =
  if key = empty then invalid_arg "Flat_tbl.add: min_int is not a key";
  let base = locate t key (home t key) in
  if t.data.(base) = key then base
  else if 2 * (t.count + 1) > t.mask + 1 then begin
    grow t;
    add t key
  end
  else begin
    t.data.(base) <- key;
    Array.fill t.data (base + 1) (t.stride - 1) 0;
    t.count <- t.count + 1;
    base
  end

(* Backward-shift deletion: walk the cluster after the hole and move back
   every entry whose home slot does not lie strictly between the hole and
   the entry, so no probe sequence ever crosses an empty slot. *)
let remove t key =
  let slot = find t key in
  if slot >= 0 then begin
    let stride = t.stride and mask = t.mask and data = t.data in
    let hole = ref (slot / stride) in
    let j = ref ((!hole + 1) land mask) in
    while data.(!j * stride) <> empty do
      let h = home t data.(!j * stride) in
      if (!j - h) land mask >= (!j - !hole) land mask then begin
        Array.blit data (!j * stride) data (!hole * stride) stride;
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    data.(!hole * stride) <- empty;
    t.count <- t.count - 1
  end

let clear t =
  if t.count > 0 then begin
    Array.fill t.data 0 (Array.length t.data) empty;
    t.count <- 0
  end

let max_probe t =
  let longest = ref 0 in
  for i = 0 to t.mask do
    let key = t.data.(i * t.stride) in
    if key <> empty then longest := max !longest (((i - home t key) land t.mask) + 1)
  done;
  !longest

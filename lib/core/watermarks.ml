(* Per-client delivery tracking.

   For each client we keep [floor] (length of the contiguously delivered
   timestamp prefix) and the set of timestamps delivered out of order above
   it.  The watermark validity check bounds accepted timestamps to
   [floor + window), and floors across nodes diverge by at most the
   in-flight window, so [capacity = 4 * window] comfortably covers every
   timestamp that can be delivered while it is still tracked.

   The common case keeps both inline in a flat client table: field 0 is the
   floor, field 1 a mask whose bit [i] records [floor + i] for
   [i < inline_bits = min 62 capacity].  A delivery that lands [inline_bits]
   or more above the floor spills the client, for good, to a ring bitmap
   over [floor, floor + capacity) kept in a side table; field 1 then reads
   [spilled].  Both representations answer exactly the same questions.

   The ring's rare overflow advances the floor to keep the triggering
   timestamp in range, clearing the ring slots whose timestamps fell below
   the new floor (stale bits would alias fresh timestamps and answer
   false-positive [delivered], silently suppressing live requests).
   Timestamps forced below the floor read as delivered, which only risks
   suppressing a duplicate proposal attempt — never a double delivery. *)

type ring = {
  mutable floor : int;
  bits : Bytes.t;  (* ring bitmap over [floor, floor + capacity) *)
}

type t = {
  window : int;
  capacity : int;
  inline_bits : int;
  clients : Sim.Flat_tbl.t;  (* client -> floor, mask or [spilled] *)
  rings : ring Sim.Int_tbl.t;  (* spilled clients only *)
}

let spilled = -1

let create ~window =
  assert (window > 0);
  let capacity = 4 * window in
  {
    window;
    capacity;
    inline_bits = min 62 capacity;
    clients = Sim.Flat_tbl.create ~fields:2;
    rings = Sim.Int_tbl.create 1;
  }

let get_bit t s ts =
  let i = ts mod t.capacity in
  Char.code (Bytes.unsafe_get s.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit t s ts v =
  let i = ts mod t.capacity in
  let byte = Char.code (Bytes.unsafe_get s.bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.unsafe_set s.bits (i lsr 3) (Char.unsafe_chr byte)

let ring_note_delivered t s ts =
  if ts >= s.floor then
    if ts < s.floor + t.capacity then begin
      set_bit t s ts true;
      (* Advance the floor over the contiguous delivered prefix, clearing
         bits as they leave the window. *)
      while get_bit t s s.floor do
        set_bit t s s.floor false;
        s.floor <- s.floor + 1
      done
    end
    else begin
      (* Out of ring range (cannot happen while acceptance windows hold);
         degrade safely by advancing the floor — everything below the new
         floor is forced delivered, which can only suppress, never
         duplicate.  Bits for timestamps that fall below the new floor are
         stale: their ring slots now alias timestamps of the new window, so
         a leftover bit would answer a false-positive [delivered] for a
         fresh timestamp and silently suppress it forever.  Clear exactly
         those slots; bits in the surviving overlap keep denoting the same
         timestamp and stay. *)
      let new_floor = ts + 1 - t.capacity in
      let stale = new_floor - s.floor in
      if stale >= t.capacity then Bytes.fill s.bits 0 (Bytes.length s.bits) '\000'
      else
        for ts = s.floor to s.floor + stale - 1 do
          set_bit t s ts false
        done;
      s.floor <- new_floor;
      (* Record the delivery that triggered the degrade: the new floor sits
         below [ts], so without its bit the id would read as not delivered
         and could be delivered twice. *)
      set_bit t s ts true;
      while get_bit t s s.floor do
        set_bit t s s.floor false;
        s.floor <- s.floor + 1
      done
    end

let spill t client ~floor ~mask =
  let s = { floor; bits = Bytes.make ((t.capacity + 7) / 8) '\000' } in
  for i = 0 to t.inline_bits - 1 do
    if mask land (1 lsl i) <> 0 then set_bit t s (floor + i) true
  done;
  Sim.Int_tbl.replace t.rings client s;
  s

let note_delivered t (id : Proto.Request.id) =
  let slot = Sim.Flat_tbl.add t.clients id.client in
  let floor = Sim.Flat_tbl.get t.clients slot 0 and mask = Sim.Flat_tbl.get t.clients slot 1 in
  if mask = spilled then ring_note_delivered t (Sim.Int_tbl.find t.rings id.client) id.ts
  else
    let d = id.ts - floor in
    if d < 0 then ()
    else if d < t.inline_bits then begin
      let mask = ref (mask lor (1 lsl d)) and floor = ref floor in
      while !mask land 1 <> 0 do
        mask := !mask lsr 1;
        incr floor
      done;
      Sim.Flat_tbl.set t.clients slot 0 !floor;
      Sim.Flat_tbl.set t.clients slot 1 !mask
    end
    else begin
      Sim.Flat_tbl.set t.clients slot 1 spilled;
      ring_note_delivered t (spill t id.client ~floor ~mask) id.ts
    end

let floor t client =
  let slot = Sim.Flat_tbl.find t.clients client in
  if slot < 0 then 0
  else if Sim.Flat_tbl.get t.clients slot 1 = spilled then (Sim.Int_tbl.find t.rings client).floor
  else Sim.Flat_tbl.get t.clients slot 0

let valid t (id : Proto.Request.id) =
  let floor = floor t id.client in
  id.ts >= floor && id.ts < floor + t.window

let delivered t (id : Proto.Request.id) =
  let slot = Sim.Flat_tbl.find t.clients id.client in
  if slot < 0 then false
  else
    let mask = Sim.Flat_tbl.get t.clients slot 1 in
    if mask = spilled then
      let s = Sim.Int_tbl.find t.rings id.client in
      id.ts < s.floor || (id.ts < s.floor + t.capacity && get_bit t s id.ts)
    else
      let d = id.ts - Sim.Flat_tbl.get t.clients slot 0 in
      d < 0 || (d < t.inline_bits && mask land (1 lsl d) <> 0)

let window t = t.window

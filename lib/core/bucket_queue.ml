(* FIFO by arrival sequence with O(1) amortized add / cut.

   Arrival sequence numbers are assigned from a per-node counter, so [add]s
   arrive in increasing order: a growable circular buffer of parallel seq
   and request arrays holds them, sorted by seq.  Removal finds the slot by
   binary search and overwrites its request with [hole], keeping its seq so
   the buffer stays sorted.  The only out-of-order inserts are resurrections
   (a request returned after an aborted proposal, rare by construction),
   kept in a small sorted side list that [cut] merges by sequence number. *)

type t = {
  mutable seqs : int array;
  mutable reqs : Proto.Request.t array;
  mutable head : int;  (* logical index of the oldest live slot *)
  mutable tail : int;  (* logical index one past the newest *)
  mutable resurrected : (int * Proto.Request.t) list;  (* sorted ascending by seq *)
  mutable count : int;
  mutable last_seq : int;
  (* Observability counters (DESIGN.md §8): two int stores per add, read
     only by metric snapshots. *)
  mutable total_added : int;
  mutable max_count : int;
}

(* Marks an empty or removed buffer slot, by physical identity. *)
let hole = Proto.Request.make ~client:0 ~ts:0 ~submitted_at:0 ()

(* Every node holds one queue per bucket (n x 16 per leader), most of them
   empty at any moment: start small and let traffic grow the ring. *)
let initial_capacity = 4

let create () =
  {
    seqs = Array.make initial_capacity (-1);
    reqs = Array.make initial_capacity hole;
    head = 0;
    tail = 0;
    resurrected = [];
    count = 0;
    last_seq = min_int;
    total_added = 0;
    max_count = 0;
  }

let length t = t.count
let total_added t = t.total_added
let max_occupancy t = t.max_count
let index t logical = logical land (Array.length t.seqs - 1)

(* Drop leading holes so [head] points at a live slot (or reaches [tail]). *)
let rec trim t =
  if t.head < t.tail && t.reqs.(index t t.head) == hole then begin
    t.head <- t.head + 1;
    trim t
  end

let grow t =
  let old_cap = Array.length t.seqs in
  let live = t.tail - t.head in
  if live = old_cap then begin
    let ncap = old_cap * 2 in
    let seqs = Array.make ncap (-1) and reqs = Array.make ncap hole in
    for i = t.head to t.tail - 1 do
      seqs.(i land (ncap - 1)) <- t.seqs.(index t i);
      reqs.(i land (ncap - 1)) <- t.reqs.(index t i)
    done;
    t.seqs <- seqs;
    t.reqs <- reqs
  end

let rec search t seq lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let s = t.seqs.(index t mid) in
    if s = seq then mid else if s < seq then search t seq (mid + 1) hi else search t seq lo mid

(* Logical index of the live buffer slot holding [seq], or -1. *)
let find_live t seq =
  let i = search t seq t.head t.tail in
  if i >= 0 && t.reqs.(index t i) != hole then i else -1

let mem t ~seq = find_live t seq >= 0 || List.mem_assoc seq t.resurrected

let insert_resurrected t seq r =
  let rec go = function
    | [] -> [ (seq, r) ]
    | ((s, _) as hd) :: rest when s < seq -> hd :: go rest
    | rest -> (seq, r) :: rest
  in
  t.resurrected <- go t.resurrected

let add t ~seq r =
  let fresh = seq > t.last_seq in
  if fresh || not (mem t ~seq) then begin
    if fresh then begin
      grow t;
      t.seqs.(index t t.tail) <- seq;
      t.reqs.(index t t.tail) <- r;
      t.tail <- t.tail + 1;
      t.last_seq <- seq
    end
    else insert_resurrected t seq r;
    t.count <- t.count + 1;
    t.total_added <- t.total_added + 1;
    if t.count > t.max_count then t.max_count <- t.count;
    true
  end
  else false

let remove t ~seq =
  let i = find_live t seq in
  if i >= 0 then begin
    t.reqs.(index t i) <- hole;
    t.count <- t.count - 1;
    trim t;
    true
  end
  else if List.mem_assoc seq t.resurrected then begin
    t.resurrected <- List.remove_assoc seq t.resurrected;
    t.count <- t.count - 1;
    true
  end
  else false

let resurrect t ~seq r = ignore (add t ~seq r)

let oldest_seq t =
  trim t;
  let buf_seq = if t.head < t.tail then Some t.seqs.(index t t.head) else None in
  match (t.resurrected, buf_seq) with
  | [], None -> None
  | [], Some s -> Some s
  | (rs, _) :: _, None -> Some rs
  | (rs, _) :: _, Some s -> Some (min rs s)

let pop_oldest t =
  trim t;
  match t.resurrected with
  | (rs, r) :: rest when t.head = t.tail || rs < t.seqs.(index t t.head) ->
      t.resurrected <- rest;
      t.count <- t.count - 1;
      Some r
  | _ ->
      if t.head < t.tail then begin
        let i = index t t.head in
        let r = t.reqs.(i) in
        t.reqs.(i) <- hole;
        t.head <- t.head + 1;
        t.count <- t.count - 1;
        Some r
      end
      else None

let cut t ~max =
  let out = ref [] in
  let k = ref 0 in
  let continue = ref true in
  while !continue && !k < max do
    match pop_oldest t with
    | Some r ->
        out := r :: !out;
        incr k
    | None -> continue := false
  done;
  Array.of_list (List.rev !out)

let clear t =
  (* Keep [last_seq] (arrival keys keep increasing across the clear) and the
     observability counters; only the pending contents go. *)
  t.head <- 0;
  t.tail <- 0;
  t.seqs <- Array.make initial_capacity (-1);
  t.reqs <- Array.make initial_capacity hole;
  t.resurrected <- [];
  t.count <- 0

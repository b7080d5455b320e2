(* One-pass stack-distance profiling: see the .mli for the algorithm.

   Configurations are grouped by (line size, set count); each group owns
   one distance histogram [hist] with buckets 0..cap-1 for exact
   distances and bucket [cap] for "deeper than any tracked way or never
   seen" (a miss everywhere — the two cases need no distinguishing, so
   nothing tracks lines beyond the deepest associativity).  A
   configuration with [A] ways then hits exactly the accesses in buckets
   < A, and per-config misses fall out of the histograms without any
   per-config work on the access path. *)

type set_stacks = {
  ss_line_shift : int;
  ss_set_mask : int;  (* sets - 1; sets is a power of two *)
  ss_cap : int;  (* deepest associativity tracked by this group *)
  ss_stack : int array;  (* sets * cap recency stacks; -1 = empty *)
  ss_hist : int array;  (* cap + 1 distance buckets *)
}

(* The fully-associative column (one set, way count up to size/line =
   512 in the paper's grid): a per-set stack would make every miss an
   O(cap) shift.  Instead the [cap] most recent distinct lines live in a
   circular buffer ordered by recency — a miss rotates the head and
   overwrites the tail in O(1), a hit at stack distance [d] scans and
   shifts exactly [d] entries — and an open-addressed hash table answers
   "is this line among the top [cap]?" in O(1), so deep and cold
   accesses never pay a scan. *)
type fully_assoc = {
  fa_line_shift : int;
  fa_cap : int;
  fa_hist : int array;  (* cap + 1 distance buckets *)
  fa_ring : int array;  (* power-of-two capacity >= cap; -1 = empty *)
  fa_ring_mask : int;
  mutable fa_head : int;  (* ring index of the most recent line *)
  mutable fa_size : int;  (* live entries, <= cap *)
  (* membership table over the ring's lines: open addressing with
     tombstone deletion, keys stored as line + 1 (0 empty, -1 dead) *)
  mutable fa_keys : int array;
  mutable fa_key_mask : int;
  mutable fa_used : int;  (* live + tombstones *)
}

(* A repeat of the previous access's line at the grid's finest line
   size is a repeat at every coarser size too, so it sits at stack
   distance 0 in every group and hits in every configuration: [access]
   counts it in [repeats] and touches no stack, ring or histogram. *)
type t = {
  ss : set_stacks array;
  fa : fully_assoc array;
  plan : (bool * int * int) array;  (* per config: (is_fa, tracker, ways) *)
  line_shift : int;  (* the grid's finest line size *)
  mutable last : int;  (* finest line of the previous access; -1 before any *)
  mutable repeats : int;
  mutable total : int;
}

let log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let make_fa ~line_shift ~cap =
  let ring = next_pow2 cap in
  let keys = next_pow2 (4 * cap) in
  {
    fa_line_shift = line_shift;
    fa_cap = cap;
    fa_hist = Array.make (cap + 1) 0;
    fa_ring = Array.make ring (-1);
    fa_ring_mask = ring - 1;
    fa_head = 0;
    fa_size = 0;
    fa_keys = Array.make keys 0;
    fa_key_mask = keys - 1;
    fa_used = 0;
  }

let create configs =
  if Array.length configs = 0 then
    invalid_arg "Stack_dist.create: empty configuration grid";
  (* Group by (line_shift, sets); remember each config's group + ways. *)
  let caps = Hashtbl.create 16 in
  let shapes =
    Array.map
      (fun (c : Cache.config) ->
        let ways = Cache.ways c in
        let sets = c.Cache.size_bytes / c.Cache.line_bytes / ways in
        let key = (log2 c.Cache.line_bytes, sets) in
        (match Hashtbl.find_opt caps key with
        | Some cap -> if ways > cap then Hashtbl.replace caps key ways
        | None -> Hashtbl.add caps key ways);
        (key, ways))
      configs
  in
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) caps []) in
  let fa_keys, ss_keys = List.partition (fun (_, sets) -> sets = 1) keys in
  let ss =
    Array.of_list
      (List.map
         (fun ((line_shift, sets) as key) ->
           let cap = Hashtbl.find caps key in
           {
             ss_line_shift = line_shift;
             ss_set_mask = sets - 1;
             ss_cap = cap;
             ss_stack = Array.make (sets * cap) (-1);
             ss_hist = Array.make (cap + 1) 0;
           })
         ss_keys)
  in
  let fa =
    Array.of_list
      (List.map
         (fun ((line_shift, _) as key) ->
           make_fa ~line_shift ~cap:(Hashtbl.find caps key))
         fa_keys)
  in
  let index_of keys key =
    let rec go i = function
      | [] -> assert false
      | k :: _ when k = key -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 keys
  in
  let plan =
    Array.map
      (fun (key, ways) ->
        if snd key = 1 then (true, index_of fa_keys key, ways)
        else (false, index_of ss_keys key, ways))
      shapes
  in
  let line_shift =
    Array.fold_left
      (fun acc (c : Cache.config) -> min acc (log2 c.Cache.line_bytes))
      max_int configs
  in
  { ss; fa; plan; line_shift; last = -1; repeats = 0; total = 0 }

(* --- set-associative groups: capped per-set move-to-front stacks --- *)

let ss_access g addr =
  let line = addr lsr g.ss_line_shift in
  let base = (line land g.ss_set_mask) * g.ss_cap in
  let stack = g.ss_stack in
  (* Find the line's depth, shifting shallower entries down one slot as
     we go, then reinsert at the top: one pass does search + update. *)
  let d = ref 0 and prev = ref line and found = ref false in
  while (not !found) && !d < g.ss_cap do
    let i = base + !d in
    let here = Array.unsafe_get stack i in
    Array.unsafe_set stack i !prev;
    prev := here;
    if here = line then found := true else incr d
  done;
  let bucket = if !found then !d else g.ss_cap in
  Array.unsafe_set g.ss_hist bucket (Array.unsafe_get g.ss_hist bucket + 1)

(* --- the fully-associative group --- *)

(* Multiplicative hashing over line numbers; the table holds at most
   [cap] live keys in >= 4*cap slots, so probe chains stay short. *)
let fa_hash fa line = (line * 0x9E3779B97F4A7) lsr 17 land fa.fa_key_mask

let fa_member fa line =
  let keys = fa.fa_keys in
  let k = line + 1 in
  let i = ref (fa_hash fa line) in
  let result = ref false and stop = ref false in
  while not !stop do
    let slot = Array.unsafe_get keys !i in
    if slot = k then begin
      result := true;
      stop := true
    end
    else if slot = 0 then stop := true
    else i := (!i + 1) land fa.fa_key_mask
  done;
  !result

let fa_insert_key fa line =
  let keys = fa.fa_keys in
  let k = line + 1 in
  let i = ref (fa_hash fa line) in
  while Array.unsafe_get keys !i != 0 && Array.unsafe_get keys !i != -1 do
    i := (!i + 1) land fa.fa_key_mask
  done;
  if Array.unsafe_get keys !i = 0 then fa.fa_used <- fa.fa_used + 1;
  Array.unsafe_set keys !i k

let fa_delete_key fa line =
  let keys = fa.fa_keys in
  let k = line + 1 in
  let i = ref (fa_hash fa line) in
  while Array.unsafe_get keys !i <> k do
    i := (!i + 1) land fa.fa_key_mask
  done;
  (* keep [fa_used] counting this tombstone: it still lengthens probes *)
  Array.unsafe_set keys !i (-1)

(* Tombstones accumulate one per eviction; rebuild the table from the
   ring (at most [cap] live lines) once they dominate. *)
let fa_rehash fa =
  Array.fill fa.fa_keys 0 (Array.length fa.fa_keys) 0;
  fa.fa_used <- 0;
  for i = 0 to fa.fa_size - 1 do
    fa_insert_key fa fa.fa_ring.((fa.fa_head + i) land fa.fa_ring_mask)
  done

let fa_access fa addr =
  let line = addr lsr fa.fa_line_shift in
  if fa_member fa line then begin
    (* Scan from the head: the line's index is its stack distance.
       Shift the more-recent entries down one slot and re-head it. *)
    let ring = fa.fa_ring and mask = fa.fa_ring_mask and head = fa.fa_head in
    let d = ref 0 in
    while Array.unsafe_get ring ((head + !d) land mask) <> line do
      incr d
    done;
    let bucket = !d in
    for j = bucket downto 1 do
      Array.unsafe_set ring
        ((head + j) land mask)
        (Array.unsafe_get ring ((head + j - 1) land mask))
    done;
    Array.unsafe_set ring (head land mask) line;
    Array.unsafe_set fa.fa_hist bucket (Array.unsafe_get fa.fa_hist bucket + 1)
  end
  else begin
    (* Cold or deeper than [cap]: a miss in every member configuration,
       and an O(1) insert at the head of the recency ring. *)
    Array.unsafe_set fa.fa_hist fa.fa_cap
      (Array.unsafe_get fa.fa_hist fa.fa_cap + 1);
    if fa.fa_size = fa.fa_cap then
      fa_delete_key fa
        fa.fa_ring.((fa.fa_head + fa.fa_size - 1) land fa.fa_ring_mask)
    else fa.fa_size <- fa.fa_size + 1;
    fa.fa_head <- (fa.fa_head - 1) land fa.fa_ring_mask;
    fa.fa_ring.(fa.fa_head) <- line;
    fa_insert_key fa line;
    if 4 * fa.fa_used > 3 * Array.length fa.fa_keys then fa_rehash fa
  end

let access t addr =
  t.total <- t.total + 1;
  let line = addr lsr t.line_shift in
  if line = t.last then t.repeats <- t.repeats + 1
  else begin
    t.last <- line;
    let ss = t.ss in
    for i = 0 to Array.length ss - 1 do
      ss_access (Array.unsafe_get ss i) addr
    done;
    let fa = t.fa in
    for i = 0 to Array.length fa - 1 do
      fa_access (Array.unsafe_get fa i) addr
    done
  end

let accesses t = t.total

let misses t =
  Array.map
    (fun (is_fa, tracker, ways) ->
      let hist =
        if is_fa then t.fa.(tracker).fa_hist else t.ss.(tracker).ss_hist
      in
      let hits = ref t.repeats in
      for d = 0 to ways - 1 do
        hits := !hits + hist.(d)
      done;
      t.total - !hits)
    t.plan

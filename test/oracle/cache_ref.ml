(* The LRU tag-array model as it stood before its repeat-line fast
   path: every access scans the whole set for the line and its least
   recently used way, and bumps the clock.  Kept verbatim as the
   reference that [Pc_caches.Cache] and [Pc_caches.Stack_dist] must
   match access for access.  Configurations are still built and
   validated by [Pc_caches.Cache.config]. *)

module Cache = Pc_caches.Cache

type t = {
  sets : int;
  nways : int;
  line_shift : int;
  tags : int array;  (** [set * nways + way]; [-1] = invalid *)
  ages : int array;  (** larger = more recently used *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

let create (cfg : Cache.config) =
  let nways = Cache.ways cfg in
  let sets = cfg.size_bytes / cfg.line_bytes / nways in
  let line_shift =
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    log2 cfg.line_bytes 0
  in
  {
    sets;
    nways;
    line_shift;
    tags = Array.make (sets * nways) (-1);
    ages = Array.make (sets * nways) 0;
    clock = 0;
    accesses = 0;
    misses = 0;
  }

let access t addr =
  let line = addr lsr t.line_shift in
  let set = line mod t.sets in
  let base = set * t.nways in
  let tags = t.tags and ages = t.ages in
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  (* One pass over the set: the way holding the line, if any, and the
     least recently used way, the first one on a tie.  Every index lies
     in [base, base + nways), inside the [sets * nways] arrays. *)
  let hit_way = ref (-1) in
  let lru_way = ref base in
  let lru_age = ref max_int in
  for w = base to base + t.nways - 1 do
    if Array.unsafe_get tags w = line then hit_way := w
    else begin
      let age = Array.unsafe_get ages w in
      if age < !lru_age then begin
        lru_age := age;
        lru_way := w
      end
    end
  done;
  if !hit_way >= 0 then begin
    ages.(!hit_way) <- t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    tags.(!lru_way) <- line;
    ages.(!lru_way) <- t.clock;
    false
  end

let accesses t = t.accesses
let misses t = t.misses

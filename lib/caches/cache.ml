type config = { size_bytes : int; assoc : int; line_bytes : int }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let config ~size_bytes ~assoc ~line_bytes =
  if not (is_pow2 size_bytes) then
    invalid_arg "Cache.config: size must be a positive power of two";
  if not (is_pow2 line_bytes) then
    invalid_arg "Cache.config: line size must be a positive power of two";
  if size_bytes mod line_bytes <> 0 then
    invalid_arg "Cache.config: line size must divide cache size";
  let lines = size_bytes / line_bytes in
  if assoc < 0 then invalid_arg "Cache.config: negative associativity";
  if assoc > 0 && lines mod assoc <> 0 then
    invalid_arg "Cache.config: way count must divide line count";
  { size_bytes; assoc; line_bytes }

let ways c = if c.assoc = 0 then c.size_bytes / c.line_bytes else c.assoc

let config_name c =
  let size =
    if c.size_bytes >= 1024 && c.size_bytes mod 1024 = 0 then
      Printf.sprintf "%dKB" (c.size_bytes / 1024)
    else Printf.sprintf "%dB" c.size_bytes
  in
  let assoc =
    if c.assoc = 0 then "full"
    else if c.assoc = 1 then "direct"
    else Printf.sprintf "%d-way" c.assoc
  in
  Printf.sprintf "%s/%s/%dB" size assoc c.line_bytes

type t = {
  set_mask : int;  (* sets - 1; [config] makes sets a power of two *)
  nways : int;
  line_shift : int;
  tags : int array;  (** [set * nways + way]; [-1] = invalid *)
  ages : int array;  (** larger = more recently used *)
  mutable last : int;  (* line of the previous access; [-1] before any *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

let create cfg =
  let nways = ways cfg in
  let sets = cfg.size_bytes / cfg.line_bytes / nways in
  let line_shift =
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    log2 cfg.line_bytes 0
  in
  {
    set_mask = sets - 1;
    nways;
    line_shift;
    tags = Array.make (sets * nways) (-1);
    ages = Array.make (sets * nways) 0;
    last = -1;
    clock = 0;
    accesses = 0;
    misses = 0;
  }

let access t addr =
  let line = addr lsr t.line_shift in
  t.accesses <- t.accesses + 1;
  (* A repeat of the previous line is a hit that reorders nothing: that
     line already has the newest age in its set (see the .mli). *)
  if line = t.last then true
  else begin
    t.last <- line;
    let base = (line land t.set_mask) * t.nways in
    let tags = t.tags and ages = t.ages in
    t.clock <- t.clock + 1;
    (* One pass over the set: the way holding the line, if any, and the
       least recently used way, the first one on a tie.  Every index
       lies in [base, base + nways), inside the [sets * nways] arrays. *)
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
  end

let accesses t = t.accesses
let misses t = t.misses

(* 4 KiB pages of 512 words, indexed by address lsr 12.

   Pages are unboxed int64 bigarrays so word reads/writes never allocate
   a box, and the struct keeps a one-entry cache of the last page hit:
   straight-line loads and stores to the same page skip both hashtable
   probes (the page lookup and the touch-set membership test).  The
   cache only ever holds pages present in [pages] — a read of an
   absent page gets the shared zero page without caching anything —
   and a page is recorded in [touched] before it can enter the cache,
   so cache hits can skip the touch.  A miss goes through [read_page]
   or [write_page], which return the page rather than the word, so
   the caller indexes it inline and neither path allocates. *)

type page =
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  pages : (int, page) Hashtbl.t;
  touched : (int, unit) Hashtbl.t;  (* pages read or written at least once *)
  mutable cache_key : int;  (* page key of [cache_page], or -1 *)
  mutable cache_page : page;
}

let page_bits = 12
let words_per_page = 512

let fresh_page () =
  let p =
    Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout words_per_page
  in
  Bigarray.Array1.fill p 0L;
  p

(* What an unwritten page reads as.  Never written: [write_page]
   returns only pages in [pages], and [create] parks it under key -1,
   which no address hits. *)
let zero_page = fresh_page ()

let create () =
  {
    pages = Hashtbl.create 64;
    touched = Hashtbl.create 64;
    cache_key = -1;  (* valid page keys are >= 0, so -1 never hits *)
    cache_page = zero_page;
  }

let check addr =
  if addr < 0 then invalid_arg "Memory: negative address";
  if addr land 7 <> 0 then
    invalid_arg (Printf.sprintf "Memory: unaligned access at %#x" addr)

let touch t key = if not (Hashtbl.mem t.touched key) then Hashtbl.add t.touched key ()

let word_of addr = (addr lsr 3) land (words_per_page - 1)

let read_page t key =
  touch t key;
  match Hashtbl.find t.pages key with
  | page ->
    t.cache_key <- key;
    t.cache_page <- page;
    page
  | exception Not_found -> zero_page

let write_page t key =
  touch t key;
  let page =
    match Hashtbl.find t.pages key with
    | page -> page
    | exception Not_found ->
      let page = fresh_page () in
      Hashtbl.add t.pages key page;
      page
  in
  t.cache_key <- key;
  t.cache_page <- page;
  page

let read t addr =
  check addr;
  let key = addr lsr page_bits in
  let page = if key = t.cache_key then t.cache_page else read_page t key in
  Bigarray.Array1.unsafe_get page (word_of addr)

let write t addr v =
  check addr;
  let key = addr lsr page_bits in
  let page = if key = t.cache_key then t.cache_page else write_page t key in
  Bigarray.Array1.unsafe_set page (word_of addr) v

let pages_touched t = Hashtbl.length t.touched
let read_float t addr = Int64.float_of_bits (read t addr)
let write_float t addr v = write t addr (Int64.bits_of_float v)
let load_words t words = List.iter (fun (addr, v) -> write t addr v) words

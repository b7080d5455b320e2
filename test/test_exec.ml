(* Tests for pc_exec: the domain pool must behave exactly like serial
   execution (order, exceptions, results) at every width, the memo
   store must count hits/misses and keep seed-distinguished keys apart,
   and the on-disk store must read every damaged entry as a miss.
   The determinism-under-parallelism invariant — experiment rows are
   bit-identical at -j 1 and -j 4 — is the contract every driver in
   Perfclone.Experiments relies on. *)

module Pool = Pc_exec.Pool
module Store = Pc_exec.Store
module Disk_store = Pc_exec.Disk_store
module E = Perfclone.Experiments

(* --- pool: unit --- *)

let test_map_preserves_order () =
  let pool = Pool.create ~num_domains:4 in
  let xs = List.init 100 (fun i -> i) in
  Alcotest.(check (list int))
    "results in input order"
    (List.map (fun x -> (x * x) + 1) xs)
    (Pool.map pool (fun x -> (x * x) + 1) xs)

let test_map_empty () =
  List.iter
    (fun j ->
      let pool = Pool.create ~num_domains:j in
      Alcotest.(check (list int)) "empty in, empty out" []
        (Pool.map pool (fun x -> x) []))
    [ 1; 4 ]

let test_serial_fallback () =
  let pool = Pool.create ~num_domains:1 in
  Alcotest.(check int) "one domain" 1 (Pool.num_domains pool);
  let xs = [ 3; 1; 4; 1; 5 ] in
  Alcotest.(check (list int))
    "num_domains=1 equals List.map"
    (List.map succ xs) (Pool.map pool succ xs)

let test_create_rejects_zero () =
  Alcotest.check_raises "num_domains=0 rejected"
    (Invalid_argument "Pc_exec.Pool.create: num_domains must be at least 1")
    (fun () -> ignore (Pool.create ~num_domains:0))

let test_exception_propagates_after_drain () =
  let pool = Pool.create ~num_domains:3 in
  let ran = Atomic.make 0 in
  let f x =
    Atomic.incr ran;
    if x = 5 then failwith "boom";
    x
  in
  (match Pool.map pool f (List.init 10 (fun i -> i)) with
  | _ -> Alcotest.fail "worker exception was swallowed"
  | exception Failure msg -> Alcotest.(check string) "worker exception" "boom" msg);
  Alcotest.(check int) "batch drained before re-raise" 10 (Atomic.get ran)

let test_earliest_exception_wins () =
  (* Two failing tasks: regardless of scheduling, the re-raised
     exception is the earliest failing input's. *)
  let pool = Pool.create ~num_domains:4 in
  let f x = if x = 3 || x = 7 then failwith (string_of_int x) else x in
  match Pool.map pool f (List.init 10 (fun i -> i)) with
  | _ -> Alcotest.fail "expected a failure"
  | exception Failure msg -> Alcotest.(check string) "input order" "3" msg

let test_nested_map_rejected () =
  let outer = Pool.create ~num_domains:2 in
  let inner = Pool.create ~num_domains:2 in
  match Pool.map outer (fun _ -> Pool.map inner succ [ 1; 2 ]) [ 1; 2; 3 ] with
  | _ -> Alcotest.fail "nested map was not rejected"
  | exception Invalid_argument _ -> ()

let test_map_reduce_ordered () =
  (* A non-commutative reduction detects any ordering violation. *)
  let pool = Pool.create ~num_domains:4 in
  let xs = List.init 20 (fun i -> i) in
  let concat =
    Pool.map_reduce pool
      ~f:string_of_int
      ~reduce:(fun acc s -> acc ^ "," ^ s)
      ~init:"" xs
  in
  Alcotest.(check string)
    "fold in input order"
    (List.fold_left (fun acc x -> acc ^ "," ^ string_of_int x) "" xs)
    concat

let test_many_domains_few_tasks () =
  let pool = Pool.create ~num_domains:8 in
  Alcotest.(check (list int)) "more domains than tasks" [ 2; 4 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2 ])

(* --- store: unit --- *)

let test_store_hit_miss_counts () =
  let s : (string * int, int) Store.t = Store.create () in
  let calls = ref 0 in
  let get k v =
    Store.find_or_compute s k (fun () ->
        incr calls;
        v)
  in
  Alcotest.(check int) "computed" 10 (get ("a", 1) 10);
  Alcotest.(check int) "miss counted" 1 (Store.misses s);
  Alcotest.(check int) "no hit yet" 0 (Store.hits s);
  Alcotest.(check int) "cached" 10 (get ("a", 1) 99);
  Alcotest.(check int) "hit counted" 1 (Store.hits s);
  Alcotest.(check int) "computed exactly once" 1 !calls;
  Alcotest.(check int) "one entry" 1 (Store.length s);
  Store.clear s;
  Alcotest.(check int) "cleared entries" 0 (Store.length s);
  Alcotest.(check int) "cleared hits" 0 (Store.hits s);
  Alcotest.(check int) "cleared misses" 0 (Store.misses s)

let test_store_seed_keys_do_not_collide () =
  (* The profile store keys on (benchmark, profile_instrs, seed): keys
     differing only in the seed must resolve to distinct entries. *)
  let s : (string * int * int, int) Store.t = Store.create () in
  let v1 = Store.find_or_compute s ("crc32", 300_000, 1) (fun () -> 111) in
  let v2 = Store.find_or_compute s ("crc32", 300_000, 2) (fun () -> 222) in
  Alcotest.(check int) "seed 1 value" 111 v1;
  Alcotest.(check int) "seed 2 value" 222 v2;
  Alcotest.(check int) "two distinct entries" 2 (Store.length s);
  Alcotest.(check int) "both were misses" 2 (Store.misses s);
  Alcotest.(check int) "seed 1 still cached" 111
    (Store.find_or_compute s ("crc32", 300_000, 1) (fun () -> 999))

let test_store_exception_caches_nothing () =
  let s : (int, int) Store.t = Store.create () in
  (match Store.find_or_compute s 1 (fun () -> failwith "compute failed") with
  | _ -> Alcotest.fail "expected the compute exception"
  | exception Failure _ -> ());
  Alcotest.(check int) "nothing cached" 0 (Store.length s);
  Alcotest.(check int) "retry computes" 5
    (Store.find_or_compute s 1 (fun () -> 5))

let test_store_parallel_access () =
  (* Pool workers sharing one store: every key resolves to one value. *)
  let s : (int, int) Store.t = Store.create () in
  let pool = Pool.create ~num_domains:4 in
  let results =
    Pool.map pool
      (fun i -> Store.find_or_compute s (i mod 8) (fun () -> 3 * (i mod 8)))
      (List.init 64 (fun i -> i))
  in
  List.iteri
    (fun i v -> Alcotest.(check int) "consistent value" (3 * (i mod 8)) v)
    results;
  Alcotest.(check int) "8 entries" 8 (Store.length s)

(* --- disk store: the one implementation behind Plan_cache and Tune_store --- *)

module Ds = Disk_store.Make (struct
  type value = int list

  let magic = "pc-test/1"
  let suffix = ".test"
  let dir_name = "pc-test"
  let max_entries = 8
  let counters = "test.disk_store"
end)

let fresh_dir () =
  let path = Filename.temp_file "pc_disk_store_test" "" in
  Sys.remove path;
  path

let write_file file s = Out_channel.with_open_bin file (fun oc -> output_string oc s)
let counter name = Pc_obs.Metrics.(value (counter name))

let test_disk_store_corruption_recovery () =
  let dir = fresh_dir () in
  let t = Ds.create dir in
  let key = Ds.digest "corrupt" in
  let file = Filename.concat dir (key ^ ".test") in
  let v = [ 1; 2; 3 ] in
  Ds.store t key v;
  Alcotest.(check (option (list int))) "stored entry readable" (Some v) (Ds.find t key);
  let good = In_channel.with_open_bin file In_channel.input_all in
  let header = String.length "pc-test/1\n" in
  let payload_at = header + 33 in
  let flip_at i s = String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s in
  List.iter
    (fun (what, contents) ->
      write_file file contents;
      let misses = counter "test.disk_store.misses" in
      Alcotest.(check (option (list int))) (what ^ " reads as a miss") None (Ds.find t key);
      Alcotest.(check int) (what ^ " counts a miss") (misses + 1)
        (counter "test.disk_store.misses");
      Alcotest.(check bool) (what ^ " is removed") false (Sys.file_exists file))
    [
      ("garbled payload", String.sub good 0 payload_at ^ "not a marshalled value");
      ("flipped payload bit", flip_at (String.length good - 1) good);
      ("flipped digest bit", flip_at header good);
      ("truncated payload", String.sub good 0 (String.length good - 1));
      ("truncated header", String.sub good 0 4);
      ("other format version", "pc-test/0" ^ String.sub good 9 (String.length good - 9));
    ];
  let computed = ref false in
  let recovered =
    Ds.find_or_compute t key (fun () ->
        computed := true;
        v)
  in
  Alcotest.(check bool) "recomputed after corruption" true !computed;
  Alcotest.(check (list int)) "recomputed value returned" v recovered;
  Alcotest.(check (option (list int))) "recomputed value re-stored" (Some v) (Ds.find t key)

let test_disk_store_eviction () =
  Alcotest.check_raises "max_entries=0 rejected"
    (Invalid_argument "Pc_exec.Disk_store.create: max_entries must be positive")
    (fun () -> ignore (Ds.create ~max_entries:0 (fresh_dir ())));
  let dir = fresh_dir () in
  let t = Ds.create ~max_entries:2 dir in
  let file key = Filename.concat dir (key ^ ".test") in
  let older, newer = (max (Ds.digest 0) (Ds.digest 1), min (Ds.digest 0) (Ds.digest 1)) in
  Ds.store t older [ 0 ];
  Ds.store t newer [ 1 ];
  (* Age the entry whose name sorts last, so only modification time can
     make it the victim. *)
  Unix.utimes (file older) 1.0 1.0;
  let evictions = counter "test.disk_store.evictions" in
  Ds.store t (Ds.digest 2) [ 2 ];
  let on_disk =
    Array.to_list (Sys.readdir dir) |> List.filter (fun f -> Filename.check_suffix f ".test")
  in
  Alcotest.(check int) "eviction keeps max_entries" 2 (List.length on_disk);
  Alcotest.(check bool) "oldest entry evicted" false (Sys.file_exists (file older));
  Alcotest.(check int) "eviction counted" (evictions + 1)
    (counter "test.disk_store.evictions");
  Alcotest.(check (option (list int))) "newer entry kept" (Some [ 1 ]) (Ds.find t newer)

(* --- qcheck: Pool.map ≡ List.map at random widths --- *)

let qcheck_pool_map_equiv =
  QCheck.Test.make ~name:"Pool.map ≡ List.map for any num_domains in [1..8]"
    ~count:40
    QCheck.(pair (small_list int) (int_range 1 8))
    (fun (xs, num_domains) ->
      let pool = Pool.create ~num_domains in
      let f x = (x * 7919) lxor (x lsr 3) in
      Pool.map pool f xs = List.map f xs)

(* --- determinism under parallelism: fig3/fig6 at -j 1 vs -j 4 --- *)

let fig_rows jobs =
  (* Cold caches each time: the serial and parallel runs must recompute
     everything and still agree bit-for-bit. *)
  E.clear_caches ();
  let pool = Pool.create ~num_domains:jobs in
  let settings = E.quick_settings in
  let pipelines = E.prepare ~pool settings in
  (E.fig3 pipelines, E.base_runs ~pool settings pipelines)

let test_fig_rows_deterministic () =
  let fig3_serial, fig6_serial = fig_rows 1 in
  let fig3_parallel, fig6_parallel = fig_rows 4 in
  Alcotest.(check bool) "fig3 rows identical at -j 1 and -j 4" true
    (compare fig3_serial fig3_parallel = 0);
  Alcotest.(check bool) "fig6 rows identical at -j 1 and -j 4" true
    (compare fig6_serial fig6_parallel = 0)

let () =
  Alcotest.run "pc_exec"
    [
      ( "pool",
        [
          Alcotest.test_case "order preservation" `Quick test_map_preserves_order;
          Alcotest.test_case "empty input" `Quick test_map_empty;
          Alcotest.test_case "num_domains=1 fallback" `Quick test_serial_fallback;
          Alcotest.test_case "invalid num_domains" `Quick test_create_rejects_zero;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates_after_drain;
          Alcotest.test_case "earliest exception wins" `Quick
            test_earliest_exception_wins;
          Alcotest.test_case "nested map rejected" `Quick test_nested_map_rejected;
          Alcotest.test_case "map_reduce order" `Quick test_map_reduce_ordered;
          Alcotest.test_case "more domains than tasks" `Quick
            test_many_domains_few_tasks;
          QCheck_alcotest.to_alcotest qcheck_pool_map_equiv;
        ] );
      ( "store",
        [
          Alcotest.test_case "hit/miss counts" `Quick test_store_hit_miss_counts;
          Alcotest.test_case "seed keys distinct" `Quick
            test_store_seed_keys_do_not_collide;
          Alcotest.test_case "failed compute not cached" `Quick
            test_store_exception_caches_nothing;
          Alcotest.test_case "parallel access" `Quick test_store_parallel_access;
        ] );
      ( "disk-store",
        [
          Alcotest.test_case "corruption recovery" `Quick
            test_disk_store_corruption_recovery;
          Alcotest.test_case "eviction bounds entries" `Quick test_disk_store_eviction;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig3/fig6 rows identical across -j" `Slow
            test_fig_rows_deterministic;
        ] );
    ]

(* Tests for the simulation substrate: virtual clock, deterministic
   PRNG and the statement counter behind Table 3-1. *)

open Sim

let qtest = QCheck_alcotest.to_alcotest

(* --- clock ----------------------------------------------------------- *)

let test_clock_charge () =
  let c = Clock.create () in
  Alcotest.(check int) "starts at zero" 0 (Clock.elapsed_us c);
  Clock.charge c 100;
  Clock.charge c 50;
  Alcotest.(check int) "accumulates" 150 (Clock.elapsed_us c);
  Clock.charge c (-10);
  Alcotest.(check int) "negative ignored" 150 (Clock.elapsed_us c)

let test_clock_advance_to () =
  let c = Clock.create () in
  let now = Clock.now_us c in
  Clock.advance_to c (now + 1000);
  Alcotest.(check int) "advanced" 1000 (Clock.elapsed_us c);
  Clock.advance_to c now;
  Alcotest.(check int) "never backwards" 1000 (Clock.elapsed_us c)

let test_clock_seconds () =
  let c = Clock.create () in
  Clock.charge c 2_500_000;
  Alcotest.(check (float 1e-9)) "seconds" 2.5 (Clock.seconds c)

(* --- rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 in
  let b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds =
  QCheck.Test.make ~name:"int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

(* The splitmix64 stream is part of every seeded result (obs sampling
   decisions, perf inputs, fault plans): these first draws were
   recorded from the original boxed-[int64] implementation and must
   never change. *)
let test_rng_pinned_stream () =
  let check seed want_next want_int =
    let r = Rng.create seed in
    List.iteri
      (fun i want ->
        Alcotest.(check int64) (Printf.sprintf "seed %d next #%d" seed i) want
          (Rng.next r))
      want_next;
    let r = Rng.create seed in
    Alcotest.(check (list int)) (Printf.sprintf "seed %d int 1000" seed)
      want_int (List.init 4 (fun _ -> Rng.int r 1000))
  in
  check 0
    [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL;
      0xf88bb8a8724c81ecL ]
    [ 883; 925; 419; 611 ];
  check 1
    [ 0x910a2dec89025cc1L; 0xbeeb8da1658eec67L; 0xf893a2eefb32555eL;
      0x71c18690ee42c90bL ]
    [ 616; 129; 647; 58 ];
  check 42
    [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L;
      0x581ce1ff0e4ae394L ]
    [ 853; 72; 964; 941 ]

(* the sampler draws once per trap: a draw must not allocate *)
let test_rng_int_allocates_nothing () =
  let r = Rng.create 3 in
  let acc = ref 0 in
  ignore (Rng.int r 256);
  let m0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Rng.int r 256
  done;
  let words = Gc.minor_words () -. m0 in
  Alcotest.(check (float 0.)) "minor words for 10k draws" 0. words;
  Alcotest.(check bool) "draws used" true (!acc > 0)

(* --- loc ---------------------------------------------------------------- *)

let test_loc_counts_statements () =
  let src = "let x = 1\nlet y = 2;;\nlet f a =\n  a + 1\n" in
  let c = Loc.count_string src in
  (* three lets plus one ';;' *)
  Alcotest.(check int) "statements" 4 c.Loc.statements;
  Alcotest.(check int) "lines" 4 c.Loc.lines

let test_loc_ignores_comments_and_strings () =
  let src =
    "(* let not_counted = 1; *)\n\
     let s = \"a ; b ; c\"\n\
     (* nested (* comment; *) still; *)\n\
     let t = 2\n"
  in
  let c = Loc.count_string src in
  Alcotest.(check int) "only real lets" 2 c.Loc.statements;
  Alcotest.(check int) "comment-only lines excluded" 2 c.Loc.lines

let test_loc_semicolons () =
  let src = "let f () =\n  print_string \"a\";\n  print_string \"b\"\n" in
  let c = Loc.count_string src in
  (* one let + one ';' *)
  Alcotest.(check int) "imperative statements" 2 c.Loc.statements

let test_loc_finds_repo_root () =
  match Loc.find_repo_root () with
  | Some root ->
    Alcotest.(check bool) "has dune-project" true
      (Sys.file_exists (Filename.concat root "dune-project"))
  | None -> Alcotest.fail "repo root not found"

let () =
  Alcotest.run "sim"
    [ "clock",
      [ Alcotest.test_case "charge" `Quick test_clock_charge;
        Alcotest.test_case "advance_to" `Quick test_clock_advance_to;
        Alcotest.test_case "seconds" `Quick test_clock_seconds ];
      "rng",
      [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        qtest test_rng_bounds;
        Alcotest.test_case "pinned stream" `Quick test_rng_pinned_stream;
        Alcotest.test_case "int allocates nothing" `Quick
          test_rng_int_allocates_nothing ];
      "loc",
      [ Alcotest.test_case "statements" `Quick test_loc_counts_statements;
        Alcotest.test_case "comments/strings" `Quick
          test_loc_ignores_comments_and_strings;
        Alcotest.test_case "semicolons" `Quick test_loc_semicolons;
        Alcotest.test_case "repo root" `Quick test_loc_finds_repo_root ] ]

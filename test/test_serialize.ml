(* Serialisation: exact round-trips for values, facts, TI-, BID- and finite
   PDBs, driven by the workload generators. *)

module Q = Ipdb_bignum.Q
module Value = Ipdb_relational.Value
module Schema = Ipdb_relational.Schema
module Fact = Ipdb_relational.Fact
module Instance = Ipdb_relational.Instance
module Finite_pdb = Ipdb_pdb.Finite_pdb
module Ti = Ipdb_pdb.Ti
module Bid = Ipdb_pdb.Bid
module Generate = Ipdb_pdb.Generate
module Serialize = Ipdb_pdb.Serialize

let schema2 = Schema.make [ ("R", 2); ("S", 1) ]

let test_value_syntax () =
  Alcotest.(check string) "int" "42" (Serialize.value_to_string (Value.Int 42));
  Alcotest.(check string) "neg" "-7" (Serialize.value_to_string (Value.Int (-7)));
  Alcotest.(check string) "str" "\"de\"" (Serialize.value_to_string (Value.Str "de"));
  Alcotest.(check string) "bot" "bot" (Serialize.value_to_string Value.Bot);
  Alcotest.(check string) "pair" "(pair 1 \"a\")"
    (Serialize.value_to_string (Value.Pair (Value.Int 1, Value.Str "a")));
  Alcotest.(check string) "fact" "(R 1 (pair 2 bot))"
    (Serialize.fact_to_string (Fact.make "R" [ Value.Int 1; Value.Pair (Value.Int 2, Value.Bot) ]))

let test_ti_roundtrip_fixed () =
  let ti =
    Ti.Finite.make schema2
      [ (Fact.make "R" [ Value.Int 1; Value.Str "a b" ], Q.of_ints 1 3);
        (Fact.make "S" [ Value.Pair (Value.Int 1, Value.Bot) ], Q.of_ints 2 7)
      ]
  in
  match Serialize.ti_of_string (Serialize.ti_to_string ti) with
  | Ok ti' ->
    Alcotest.(check bool) "same facts" true
      (List.for_all2
         (fun (f, p) (f', p') -> Fact.equal f f' && Q.equal p p')
         (Ti.Finite.facts ti) (Ti.Finite.facts ti'))
  | Error m -> Alcotest.fail m

let test_parse_errors () =
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "garbage" true (is_err (Serialize.ti_of_string "(nope)"));
  Alcotest.(check bool) "unclosed" true (is_err (Serialize.ti_of_string "(ti (schema (R 1))"));
  Alcotest.(check bool) "bad prob" true
    (is_err (Serialize.ti_of_string "(ti (schema (R 1)) ((R 1) huh))"));
  Alcotest.(check bool) "wrong form" true (is_err (Serialize.pdb_of_string "(ti (schema (R 1)))"))

let test_file_roundtrip () =
  let d =
    Finite_pdb.make (Schema.make [ ("R", 1) ])
      [ (Instance.empty, Q.of_ints 1 4);
        (Instance.of_list [ Fact.make "R" [ Value.Int 1 ] ], Q.of_ints 3 4)
      ]
  in
  let path = Filename.temp_file "ipdb" ".pdb" in
  Ioutil.atomic_replace ~path (Serialize.pdb_to_string d);
  let text =
    match Serialize.load ~path with
    | Ok text -> text
    | Error e -> Alcotest.fail (Ipdb_run.Error.to_string e)
  in
  (match Serialize.pdb_of_string text with
  | Ok d' -> Alcotest.(check bool) "file roundtrip" true (Finite_pdb.equal d d')
  | Error m -> Alcotest.fail m);
  Sys.remove path;
  (* I/O failure is a typed Io error, not an exception *)
  match Serialize.load ~path:"/nonexistent/missing.pdb" with
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"
  | Error (Ipdb_run.Error.Io _) -> ()
  | Error e -> Alcotest.failf "expected Io error, got %s" (Ipdb_run.Error.to_string e)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)
let prop name f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:150 ~name arb_seed f)

let roundtrips =
  [ prop "TI roundtrip" (fun seed ->
        let st = Generate.rng seed in
        let ti = Generate.ti st ~schema:schema2 ~facts:5 ~universe:5 in
        match Serialize.ti_of_string (Serialize.ti_to_string ti) with
        | Ok ti' -> Serialize.ti_to_string ti = Serialize.ti_to_string ti'
        | Error _ -> false);
    prop "BID roundtrip" (fun seed ->
        let st = Generate.rng (seed + 1) in
        let bid = Generate.bid st ~schema:schema2 ~blocks:3 ~max_block_size:2 ~universe:5 in
        match Serialize.bid_of_string (Serialize.bid_to_string bid) with
        | Ok bid' ->
          Finite_pdb.equal (Bid.Finite.to_finite_pdb bid) (Bid.Finite.to_finite_pdb bid')
        | Error _ -> false);
    prop "PDB roundtrip (exact distribution)" (fun seed ->
        let st = Generate.rng (seed + 2) in
        let d = Generate.finite_pdb st ~schema:schema2 ~worlds:4 ~max_size:3 ~universe:5 in
        match Serialize.pdb_of_string (Serialize.pdb_to_string d) with
        | Ok d' -> Finite_pdb.equal d d'
        | Error _ -> false)
  ]

let () =
  Alcotest.run "serialize"
    [ ( "unit",
        [ Alcotest.test_case "value syntax" `Quick test_value_syntax;
          Alcotest.test_case "ti roundtrip" `Quick test_ti_roundtrip_fixed;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip
        ] );
      ("roundtrips", roundtrips)
    ]

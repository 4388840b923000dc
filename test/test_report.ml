(* Tests for the HTML report writer, through the file it writes. *)

open Sbft_harness

let sample =
  Table.make ~id:"T1" ~title:"demo & <tricks>" ~header:[ "a"; "b" ]
    ~notes:[ "a note with \"quotes\"" ]
    [ [ "1"; "x<y" ]; [ "2"; "p&q" ] ]

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* The document [Report.write_file] writes for [tables]. *)
let written ?title tables =
  let path = Filename.temp_file "sbft_report" ".html" in
  Report.write_file ~path ?title tables;
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  contents

let test_escape () =
  let html = written [ Table.make ~id:"T3" ~title:"&<>\"' hello" ~header:[ "x" ] [] ] in
  Alcotest.(check bool) "all specials" true (contains ~needle:"&amp;&lt;&gt;&quot;&#39; hello" html)

let test_table_fragment () =
  let html = written [ sample ] in
  Alcotest.(check bool) "has section" true (contains ~needle:"<section id=\"t1\">" html);
  Alcotest.(check bool) "title escaped" true (contains ~needle:"demo &amp; &lt;tricks&gt;" html);
  Alcotest.(check bool) "cell escaped" true (contains ~needle:"x&lt;y" html);
  Alcotest.(check bool) "note escaped" true (contains ~needle:"&quot;quotes&quot;" html);
  Alcotest.(check bool) "no raw angle payload" false (contains ~needle:"x<y" html)

let test_page_structure () =
  let html = written ~title:"t" [ sample; Table.make ~id:"T2" ~title:"other" ~header:[ "x" ] [ [ "1" ] ] ] in
  Alcotest.(check bool) "doctype" true (contains ~needle:"<!DOCTYPE html>" html);
  Alcotest.(check bool) "nav links both tables" true
    (contains ~needle:"href=\"#t1\"" html && contains ~needle:"href=\"#t2\"" html);
  Alcotest.(check bool) "closes body" true (contains ~needle:"</body></html>" html)

let test_write_file () =
  Alcotest.(check bool) "round-trips" true (contains ~needle:"<section id=\"t1\">" (written [ sample ]))

let suite =
  [
    Alcotest.test_case "escape" `Quick test_escape;
    Alcotest.test_case "table fragment" `Quick test_table_fragment;
    Alcotest.test_case "page structure" `Quick test_page_structure;
    Alcotest.test_case "write file" `Quick test_write_file;
  ]

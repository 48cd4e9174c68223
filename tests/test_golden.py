"""Golden output digests: the sha256 of stdout and the exit code of every
fixture under each command and format.

The table pins the CLI's output bytes, so a refactor that changes any of
them fails here, naming the fixture, the command and the format.  A
deliberate output change prints the new table with

    PYTHONPATH=src python tests/test_golden.py

to paste over the tables below, and records the change in CHANGES.md.
``TRIALS_GOLDEN`` pins ``check --trials 300 --seed 7`` on every fixture,
so a sampled stream that parts from the old one after trial 20 fails too.
``LONG_GOLDEN`` pins witness, index and check the same way on three built
graphs whose witness legs are up to 60 edges long, and ``WIDE_GOLDEN`` pins
JSON index, analyze and decompose on clock(1200), line(200) and the doubled
line with k = 11.  The script prints all four tables, writing the built
graphs to a temporary directory.
"""

import contextlib
import hashlib
import io
import pathlib
import tempfile

import pytest

from conftest import doubled_line, tailed_cycle
from leavitt.cli import main
from corpus import clock, line
from leavitt.graphio import canonical_document, load_graph

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
NAMES = sorted(p.stem for p in FIXTURES.glob("*.graph"))

COMMANDS = {
    "analyze": ("analyze",),
    "index": ("index",),
    "witness": ("witness",),
    "check": ("check", "--trials", "20", "--seed", "0"),
    "decompose": ("decompose",),
    "ideals": ("ideals",),
    "eval": ("eval",),  # the expression follows the graph, see _argv
}


def _argv(name: str, command: str, fmt: str):
    """The CLI arguments of one case, or None when it does not apply: eval
    runs ``b[0] + b[0]*`` on the fixture's first bundle b."""
    path = str(FIXTURES / f"{name}.graph")
    argv = [COMMANDS[command][0], path, *COMMANDS[command][1:], "--format", fmt]
    if command == "eval":
        bundles = load_graph(path).bundles
        if not bundles:
            return None
        argv.insert(2, f"{bundles[0].id}[0] + {bundles[0].id}[0]*")
    return argv


def _digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"{hashlib.sha256(out.getvalue().encode()).hexdigest()} {code}"


def _cases():
    for name in NAMES:
        for command in COMMANDS:
            for fmt in ("text", "json"):
                if _argv(name, command, fmt) is not None:
                    yield name, command, fmt


GOLDEN = {
    ('clock3', 'analyze', 'text'): '9c9fe8cc28dba4b2df671a5ad372c374ac0f44cb396e2e6da8c7109ad90e8fe7 0',
    ('clock3', 'analyze', 'json'): '2ef31f9e4bcc4f02755a15a9c4303b3c6b4a927a00c0202a5a5eebd13b0961fc 0',
    ('clock3', 'index', 'text'): '584fdaff38290821daca6a3387f909f41f82be323f2e6b49be6bea1d633fe9d0 0',
    ('clock3', 'index', 'json'): '0a96a6680a791660efe1ce83fa8885de04b5ff4e48ed8b553838d24a5d90086d 0',
    ('clock3', 'witness', 'text'): '3b8cd32deea0032eb18e3e3c662efd7d95ae5984fde4b6be26d4916586b6ce84 0',
    ('clock3', 'witness', 'json'): '5ed9b084ef9a5a933d113dd2656fa4ebd3f67971fdd139ff46f0b86896ffc086 0',
    ('clock3', 'check', 'text'): '18871807e54a91d79dfa0a02b645304483532bcf60e2cf390d149982cc37a5fd 0',
    ('clock3', 'check', 'json'): '6ea5d47c012d3d8afce95e45af486c8b1588fed12e89aa9cce22d4aa78afb43a 0',
    ('clock3', 'decompose', 'text'): 'e89fab5e191737ebe7c2f3f98679737343d21584d25e310cfcbcaf50f512cdd1 0',
    ('clock3', 'decompose', 'json'): '54ca33ab664a35d77c81155be335c8356b39689eac9416219921b340bd7b20de 0',
    ('clock3', 'ideals', 'text'): '30097b9343ae4a79fea90e1194598b074dd13fb1e1029f458534a5951a61eccb 0',
    ('clock3', 'ideals', 'json'): 'e79c8db93bc569923d5cb0455081acc0ed5c24d869f0678d5d4b8a8faf6743f6 0',
    ('clock3', 'eval', 'text'): 'd75cfa526408d21faa55551e004527c7ab4372972c795a3964a33f6e307a5f0c 0',
    ('clock3', 'eval', 'json'): '9fcc02e5674701ccef27a7bd9f4708bb83084cbee93cf76418e67ad7ed6b0bcd 0',
    ('clock5', 'analyze', 'text'): '75fb34e6321897f417be241a2e51ee1b36839f42b8c707067b51654d5a001498 0',
    ('clock5', 'analyze', 'json'): '97f180444fe383c772af6416806233c8659e97cfdc5cfa2e542206ee6fb4980a 0',
    ('clock5', 'index', 'text'): 'c587514e9da83b7b19a89fa5219bafb71fa6472c0bb70e3032bdf61c17453d46 0',
    ('clock5', 'index', 'json'): '6fd15a5b3dff45ccfa60f0cbf8395e9fc7925954bdcf66809ddbb93c58f0b92d 0',
    ('clock5', 'witness', 'text'): '3b8cd32deea0032eb18e3e3c662efd7d95ae5984fde4b6be26d4916586b6ce84 0',
    ('clock5', 'witness', 'json'): '5ed9b084ef9a5a933d113dd2656fa4ebd3f67971fdd139ff46f0b86896ffc086 0',
    ('clock5', 'check', 'text'): '634cd9ad0d4e7e477b453a05bd3d4bdf3606a095014c753c06b0dd8dbec72c8b 0',
    ('clock5', 'check', 'json'): '4c161d62469c6920d4b14623bef6e756fe8f95e6212687be25dcba1159889b2a 0',
    ('clock5', 'decompose', 'text'): '530f984075eeb02be6bac715959dec7acb2dad5ee79753e41171f33266e7937d 0',
    ('clock5', 'decompose', 'json'): '74a3c7891ee67acfc7b16f3c848250d09bce955440d30e2309259216c2a39d09 0',
    ('clock5', 'ideals', 'text'): '11a8bdcca9af0e43a0d2441b6599de12033981c8eaec1b1fd2c88d4d6e564580 0',
    ('clock5', 'ideals', 'json'): '21aca085e06fa529512fd6e3665ef679a80aa4beb5f029c1ac92733103828547 0',
    ('clock5', 'eval', 'text'): 'd75cfa526408d21faa55551e004527c7ab4372972c795a3964a33f6e307a5f0c 0',
    ('clock5', 'eval', 'json'): '9fcc02e5674701ccef27a7bd9f4708bb83084cbee93cf76418e67ad7ed6b0bcd 0',
    ('graph_f', 'analyze', 'text'): 'a02f850c60e6ee997125b2866eca32f5a22980d1e712a0469471766dbf1f41c7 0',
    ('graph_f', 'analyze', 'json'): 'fa3bf8d83da522999092d3c6bca68b8fca8773c9a44138eb3d9a399c034d9791 0',
    ('graph_f', 'index', 'text'): 'e6a74d20a4c0890ca1dcf6299b489efe7011f5e82d2eedb2d95f2afa806ea682 0',
    ('graph_f', 'index', 'json'): '68a700e8b49abbe47392fd6965d33c0697ba180df90dbe3c76238fbcbd12ec3e 0',
    ('graph_f', 'witness', 'text'): '7aff3f320c3760bc3a4ceac486f493cbb5c673e28a0b1025851e9afa2ab2ead1 0',
    ('graph_f', 'witness', 'json'): 'cb90a95a39823a4b4376362285116d3feb310e85fe4491438e79b105cf6e5dcc 0',
    ('graph_f', 'check', 'text'): '62d3814edac179fabf5718019f25adb0c2d540bf47e3a1f0f3fa310f78a2c6a3 0',
    ('graph_f', 'check', 'json'): '8e55ab2678256160fba5ef030809527ac417bc2c4aa0c39398124ef3d1906a6c 0',
    ('graph_f', 'decompose', 'text'): '25e0963ed6fce91acb2aedbd750de553823bd238f253ddd08e2326040a399657 0',
    ('graph_f', 'decompose', 'json'): 'e5c41d7f5d56876d9b889a45543937ff6be7fa3e655c1480b39a427bbca4e721 0',
    ('graph_f', 'ideals', 'text'): '4242aaae510cef0b170015cc1d0f83dad8c750d1bfa0095afdbf85a0f5e405e6 0',
    ('graph_f', 'ideals', 'json'): '02b832d830efba47ae7cdf9c932287a9f82aae7424a9eab2f5058d9f1301cf44 0',
    ('graph_f', 'eval', 'text'): 'ccfd2887429b94edb6400c75e9833ebea6df296f855a6f6d76ab369a2b84a6d8 0',
    ('graph_f', 'eval', 'json'): 'bb46afdd2c4c46cb741061398ff3b0c3d8ce872e1351e86c14e46a24fab45d15 0',
    ('inverse_clock3', 'analyze', 'text'): '9187df6fa77bc6bc4e3187203e891af9a178e90713518a2f3e93c638637c6f2e 0',
    ('inverse_clock3', 'analyze', 'json'): '8f9206a9e7b8f570409863b50129215283e9385bdf99874dfe3e48bdf16030b0 0',
    ('inverse_clock3', 'index', 'text'): 'bf1e2f24550519b34666feb66d7f7b8d5a6b6bd822a4b659767791583c99592e 0',
    ('inverse_clock3', 'index', 'json'): '3fd701b11045822668e22ed6af1df55bc732f0fec43603d38993b5b1f948114c 0',
    ('inverse_clock3', 'witness', 'text'): 'bebeba8a8e5a973d415210ef19f21a82a24938f64c268972d368604c020cf75c 0',
    ('inverse_clock3', 'witness', 'json'): '36682da3e34c3456709a66b18055b4c0a06750e85f81715791b739aebf52069e 0',
    ('inverse_clock3', 'check', 'text'): 'b42b0c65ac25c86dadbc35faa8a71287c069a5348b455fdfdb294c246456dcfb 0',
    ('inverse_clock3', 'check', 'json'): '108c1707a510b7a216bf15daf7110d8c12237eff048846d6e3fe3035688e32a0 0',
    ('inverse_clock3', 'decompose', 'text'): '63292dd564c9280ec83b7c3103aca57d596026e9af51daf69916a5a3325f2667 0',
    ('inverse_clock3', 'decompose', 'json'): '6a5004abd74aade6de3daca67d970e1adb43523e23c2878f91bfcdd6f8f56e10 0',
    ('inverse_clock3', 'ideals', 'text'): '6a0ae2717b3f5b43ba993dbf31efecfd3e3166006a5478eef56ec0d612b458a2 0',
    ('inverse_clock3', 'ideals', 'json'): '94b324963416ae45a89db3e6662f424254f537df7b1f6516ce86fdaa4272ea61 0',
    ('inverse_clock3', 'eval', 'text'): 'ea091c067d256e924b35071bc9434bf5a1b1da42526447275c23e8cc492bc06e 0',
    ('inverse_clock3', 'eval', 'json'): '961e73d2e761f734b9596f77ef1feb55b9e007493a49a7b96e2499dcf4bbfd6b 0',
    ('line1', 'analyze', 'text'): '592d9161cc054659c20eb5adf25ea37383748fd46639efa240b16754795c7943 0',
    ('line1', 'analyze', 'json'): '1f36d4321d7934722c8a7fd55ec9b39797c9868c2df47d08b5880f078315fe76 0',
    ('line1', 'index', 'text'): 'df28a936b49ccec39a37f34ee1486f19384a5614ee60fea2ca524d4a6684d00e 0',
    ('line1', 'index', 'json'): 'ede026e8571e794f2f5b8f740ea0e864d648e014f37c865d4c0facf7b7e502f4 0',
    ('line1', 'witness', 'text'): '5ca409571452eb045674f1f7b53d28333eb5fed313473c33292b369e9e1ab858 0',
    ('line1', 'witness', 'json'): 'a77c158e241eb41328259c607b9d40cbc2ae2e8b3280ad3e4bac7cce2359167d 0',
    ('line1', 'check', 'text'): '674a7d8042e226b7c31e9f0bd78016a2460960f576e643b76b4fb6cc5ecce557 0',
    ('line1', 'check', 'json'): '1e0a5c8f92cadd197882d46375c90ab0e8a2bc22f7cfe7178b0cd3eeed1e94d6 0',
    ('line1', 'decompose', 'text'): '122244a554576b5347ede4b31c2ee9c0a0f5cb85c0cd1e8e5babe7c2070f55de 0',
    ('line1', 'decompose', 'json'): '8a8602b1e2ae240cdaf1b9193b1aa102aa6b52eeb4d5a0cc097b99cb10be4388 0',
    ('line1', 'ideals', 'text'): 'c26a9eae0ded5cbdf281cdb9e3cdfb9e186506c8068fda4736fe9e74215971aa 0',
    ('line1', 'ideals', 'json'): 'dc3087a6b606f913cdf6adab9f885729ce8817d6d9ad811ccb92bbaac2139163 0',
    ('line2', 'analyze', 'text'): '6edf7e97de49ba1a5890bcfd1388a3e124810480aec182d42e6d44c1729a17ce 0',
    ('line2', 'analyze', 'json'): '366b5bd5a59a7a3a70db5f37cd604c501dd33c8916fe2d3a42ca75a412562b74 0',
    ('line2', 'index', 'text'): '64633591a1cf7a6064a5c36a07dae84fae4115fcfb01ad8f9407786d77462005 0',
    ('line2', 'index', 'json'): 'b9882323395325985a8308c0cc3c3a367e6028c32eab24cd4e7a9e6f187d6786 0',
    ('line2', 'witness', 'text'): '3b8cd32deea0032eb18e3e3c662efd7d95ae5984fde4b6be26d4916586b6ce84 0',
    ('line2', 'witness', 'json'): 'c7ce9de15eeb93b5df0e41f7d2daa15162d1f149768c12229b83a529e3e8f426 0',
    ('line2', 'check', 'text'): '5ce0f2647435d882e1779c838076c2ddba9075dade03d82176dc42f46ec7f2ee 0',
    ('line2', 'check', 'json'): '81acac157b9cf44c11c9dc50b417474806da2b7a5b7fb00c3c0b442166427477 0',
    ('line2', 'decompose', 'text'): '1857cab277237b39fc97c15b82337f22ff0f0e1fd47029abddc6fbe0c724e92f 0',
    ('line2', 'decompose', 'json'): '282febec6fdfc0f0b4bc48952feb74b3537a85f34a0c16da20f05cc88fd33002 0',
    ('line2', 'ideals', 'text'): 'e8111601429434f722fb6c06fe9e84bcf4a3af059be8b5bbcf4a7db28a2838a0 0',
    ('line2', 'ideals', 'json'): '4263d664d2d0aa191d404637abd0aa1d35847b8d253d468780a23a03289f32e4 0',
    ('line2', 'eval', 'text'): '2ab339e160948a02c07f10f197f674dc868f39655d0879b9c8b0a190c2d23814 0',
    ('line2', 'eval', 'json'): 'c16b0b484f8f12e62f0df7a55e5f41131dba7a1ec1a33d9ce353f115fc66f360 0',
    ('line3', 'analyze', 'text'): '9d351bab2864e095c04f72ef9cb979900135b12c47d61b3beffbf7190c99c553 0',
    ('line3', 'analyze', 'json'): 'b9e2f6750e249dadbe0d443079c49c9e10fd3789e944c7355cb6ae4ee032318a 0',
    ('line3', 'index', 'text'): 'fb8b7fd51c36e8dd335c5a066654f045567b19a984aa42e553806bff08fdfb4a 0',
    ('line3', 'index', 'json'): 'fcd47e46aff6ab0daace0813cf4f2d387d9cf20b270cd6762b4aa1f6a147ad9d 0',
    ('line3', 'witness', 'text'): '331a1d951cb1f65af6f1ac5344c4ac4d5cfc3e341af9873052e23bd3ce7ef271 0',
    ('line3', 'witness', 'json'): 'd0631934d91a29374469712c11599607ed913bba6f514aa907df4f760399ea3d 0',
    ('line3', 'check', 'text'): '2259365006488db98ae7f7489c6b4fc17b5fa8c4919d56b94db35dccdb02a6c0 0',
    ('line3', 'check', 'json'): '608193b4b22de61350bb1a2ad507f2ed97c36b850734a96d2585c09b04666b36 0',
    ('line3', 'decompose', 'text'): 'f9d7041db330e0ee43ebe7a41dcc9b64d8e0cf18b9c7d9c1984b6e056d960673 0',
    ('line3', 'decompose', 'json'): 'ab8686ff430dbeb1cd4a9f4c74ff74f9f9c332b783b05b76c87e0ca4df5650f0 0',
    ('line3', 'ideals', 'text'): '94cb09e5651b5ebc85294852c00f4fe398d76ed5df60b1d5378893383ef33510 0',
    ('line3', 'ideals', 'json'): 'cb1efeeb1febe9de0133040934f69a42d06c9ab8a32925e40a05d932b8538152 0',
    ('line3', 'eval', 'text'): '2ab339e160948a02c07f10f197f674dc868f39655d0879b9c8b0a190c2d23814 0',
    ('line3', 'eval', 'json'): 'c16b0b484f8f12e62f0df7a55e5f41131dba7a1ec1a33d9ce353f115fc66f360 0',
    ('line4', 'analyze', 'text'): '314d0af630caa4fa0aeaf0357d0b1acac20094ad03d6d7167567bfa5fbba7df1 0',
    ('line4', 'analyze', 'json'): '31314db9a989a42227b655246c703cb7a298ef7eac2f5d53284198ece0118c8c 0',
    ('line4', 'index', 'text'): 'a57864b6d28d94fe8d233f2b5711f7af3bbb8276608b17e1b7f214dcc087e707 0',
    ('line4', 'index', 'json'): '0a1014c62e13628aaf83cce0e70731f39c971e505e4805ed7d73e1ef27ed344b 0',
    ('line4', 'witness', 'text'): 'bebeba8a8e5a973d415210ef19f21a82a24938f64c268972d368604c020cf75c 0',
    ('line4', 'witness', 'json'): '9fafc8c48477ab9c2fa179492a3738f60d22fcfeff4f6acffe23aedae670f0ac 0',
    ('line4', 'check', 'text'): '6025670c15941b16ed35b3c795dc5c32d9adb4df2c4439af126dcabd80f7c150 0',
    ('line4', 'check', 'json'): '3945d80c487a95871f70fe901aa6a322bd50afa843d70e362cd14a3364253610 0',
    ('line4', 'decompose', 'text'): '63292dd564c9280ec83b7c3103aca57d596026e9af51daf69916a5a3325f2667 0',
    ('line4', 'decompose', 'json'): '6a5004abd74aade6de3daca67d970e1adb43523e23c2878f91bfcdd6f8f56e10 0',
    ('line4', 'ideals', 'text'): '6a0ae2717b3f5b43ba993dbf31efecfd3e3166006a5478eef56ec0d612b458a2 0',
    ('line4', 'ideals', 'json'): '94b324963416ae45a89db3e6662f424254f537df7b1f6516ce86fdaa4272ea61 0',
    ('line4', 'eval', 'text'): '2ab339e160948a02c07f10f197f674dc868f39655d0879b9c8b0a190c2d23814 0',
    ('line4', 'eval', 'json'): 'c16b0b484f8f12e62f0df7a55e5f41131dba7a1ec1a33d9ce353f115fc66f360 0',
    ('line5', 'analyze', 'text'): '8c3c8c94b2d987675e41838aa570fb6decdaf53fed315f31bf50bb2009a00b91 0',
    ('line5', 'analyze', 'json'): '43f0374749339eaad759e1b2925c3960aae42d881adae3a8323113622de24344 0',
    ('line5', 'index', 'text'): 'cd62dbce14724db20c2b2fb5051011744fe2ac4c49c33c243d319c69d388956d 0',
    ('line5', 'index', 'json'): '5710913216d9c3283fcf9f29104c0b1c8b4ec3ee04d3fc5ce0efe8ed689211f6 0',
    ('line5', 'witness', 'text'): 'fa047311dc36dd7c5f845199c37f7860f5d7d2b3a0a7b51d2dd776905218fb99 0',
    ('line5', 'witness', 'json'): '932c67f7de241520d9d7099c5a9e0b1a35cb8b0a90d4073815dd7421fcba53ed 0',
    ('line5', 'check', 'text'): '5e44d841f21db77a634efa532833aa2a1106cfccbce54bc8a47aabd88260e7e1 0',
    ('line5', 'check', 'json'): 'eda7a3fe6901d5990e7d64c645a78ab719726f7f4dff337066ff505d2c943002 0',
    ('line5', 'decompose', 'text'): '2165bda3fa4f0b1b150ba88cc2e6d0ff2d9839f7239b67812f7e6bf769ba24a2 0',
    ('line5', 'decompose', 'json'): '39edeac6309e00da9a0fd3b31b7a0acedcbffcee23fb23619482cc9a9b39017d 0',
    ('line5', 'ideals', 'text'): 'e9fd4ab84f78f3947015ef9b190379b002fb3bae854fd93647036a230372fa4a 0',
    ('line5', 'ideals', 'json'): 'd7012244ea41cb6054cac813ae13175eed98551c715e16bd0de5a3d69d683f94 0',
    ('line5', 'eval', 'text'): '2ab339e160948a02c07f10f197f674dc868f39655d0879b9c8b0a190c2d23814 0',
    ('line5', 'eval', 'json'): 'c16b0b484f8f12e62f0df7a55e5f41131dba7a1ec1a33d9ce353f115fc66f360 0',
    ('line6', 'analyze', 'text'): '5d7879a2205585d9acc74a90181cb866e2eef12b7db3a60d76e1b3ca1bf13551 0',
    ('line6', 'analyze', 'json'): '887a9096529daca1e8a51cde10a6d29e24b45cf033c2602c642ae2067997b6be 0',
    ('line6', 'index', 'text'): 'de5c7b9cfc5d95c7aa824b8d51364f27bfc4dc7bc55e443e3b305d44c72e2f6a 0',
    ('line6', 'index', 'json'): '70be87cb0552008b2e7193dc07f02d09d3d1a64c95c7906e47eb27ce2aa2be5f 0',
    ('line6', 'witness', 'text'): 'd4b61678615ae90be9e91ab1d0d15d54680a427fe1370a4fba5dc78d8d94764f 0',
    ('line6', 'witness', 'json'): '9d7511c5dfc82f57199d5d2500ff644af0762b8b82e3ebf8b12fc4f1c887f331 0',
    ('line6', 'check', 'text'): 'cfb400977fd9db8876009a0fd814a15e09aef7b21e45f43ee3cf3c53703c75a8 0',
    ('line6', 'check', 'json'): 'f4e4e3e159e0cc6e366aa7b71f81563053ff05408c1b587f50f3c4de332fb77e 0',
    ('line6', 'decompose', 'text'): '23715194442635d244d51c6bebf5e9019c80feb510d16ab7b3f50540fd3dbc9c 0',
    ('line6', 'decompose', 'json'): 'b4a681e6aaf4058d7225a6bfefc850c4d4132a19763e890b10d33a76c4b4899a 0',
    ('line6', 'ideals', 'text'): '2a3083e776a74c5ededcd32f49f838dbffa56bd6640d8becb6ebab3cfce7a341 0',
    ('line6', 'ideals', 'json'): '9f940cf527734395d565d1b95eba17edecc6127ea3e430c2ed76c299b84e0220 0',
    ('line6', 'eval', 'text'): '2ab339e160948a02c07f10f197f674dc868f39655d0879b9c8b0a190c2d23814 0',
    ('line6', 'eval', 'json'): 'c16b0b484f8f12e62f0df7a55e5f41131dba7a1ec1a33d9ce353f115fc66f360 0',
    ('loop_with_tail', 'analyze', 'text'): '1f64bdda34dbc397c31b0dfde500759211c885a8d5036108a17dcb390d66bb3e 0',
    ('loop_with_tail', 'analyze', 'json'): '40796e972254e19637728ca9e56407a20c284f7327ded71a2c9111432c5ee19e 0',
    ('loop_with_tail', 'index', 'text'): 'f1ec1e962a3de5da08edaff4ceabe0bd6e2a1a4987961bb3d32854db2b1917fd 0',
    ('loop_with_tail', 'index', 'json'): '7710e961c62e637c6332ce2a1d287374d23f8685f1fff7cd47c299a3f6a33b8d 0',
    ('loop_with_tail', 'witness', 'text'): '37a36c82e109533ca12b58ae7340113fb245ceed10d628855d2aa053f8b8c084 0',
    ('loop_with_tail', 'witness', 'json'): '94d7bf4ca9b00dccd094d69f6dbd7412f7698cb19fac20b24716590785876ed1 0',
    ('loop_with_tail', 'check', 'text'): 'aa762e9d77a2256ce8373b5f0796e39b4be1adb0b058925260a9c16221f43537 0',
    ('loop_with_tail', 'check', 'json'): 'ff44c865c6794cbdaa61765322a53de4e1aa95798a24caf65cfb20ca54f22229 0',
    ('loop_with_tail', 'decompose', 'text'): '0b4efcbae4dc59cf37fa4400cf2d928e0ea00c346fbf3a1ac078464d543f42ea 0',
    ('loop_with_tail', 'decompose', 'json'): 'ee6be1b37dd670200bd89f4f64a1838058c354b7bbfd0cfb2bc0e21aefef4b39 0',
    ('loop_with_tail', 'ideals', 'text'): '29aced8a2c58447651ead2051fcbc66bd21ea7ebce38ee2b3029341449dd12a2 0',
    ('loop_with_tail', 'ideals', 'json'): 'f6b52753628951e6ba88b068703256aed7532907c4630a0c26808f7d1a39d59d 0',
    ('loop_with_tail', 'eval', 'text'): '242c7a268ee1a4798cf68543d19a0a1eaeda525074a95e6b21eb2b07085eda3f 0',
    ('loop_with_tail', 'eval', 'json'): '1e93ea784ebbee3d3da04ad645143cf90c6d7390e94c2aa196f47feed335d5d7 0',
    ('omega_gadget', 'analyze', 'text'): '0f1848b3237f1e014ea8373aec08dc5a40a2dc6f9a0362d3341e71f0ef033a23 0',
    ('omega_gadget', 'analyze', 'json'): '5583e5596986b4085968caf723b0d62648dd090b9f65bc746d75f16c2ad45464 0',
    ('omega_gadget', 'index', 'text'): '2ca1773a064000743ed30c6de6376f3be749e7fe5899bf7b3ab86f120cbf1e0f 0',
    ('omega_gadget', 'index', 'json'): '762f8e71c8b350fc5d39b0e3d75c4ae760b215f35b39a5d004791746f4281184 0',
    ('omega_gadget', 'witness', 'text'): '331a1d951cb1f65af6f1ac5344c4ac4d5cfc3e341af9873052e23bd3ce7ef271 0',
    ('omega_gadget', 'witness', 'json'): '645bd0b2584f22d4e684870ee9f787e1f62ec02f3f2d8b0a6fbc2347d92830af 0',
    ('omega_gadget', 'check', 'text'): 'e7fefdeccba320e5410b730d6c17e81c18be3fcbc371b8527e35538b588f3a30 0',
    ('omega_gadget', 'check', 'json'): 'f90c31c7f490420e49dcf0f348120bc7993181f08f9cc115d946f06c2fe5b3a3 0',
    ('omega_gadget', 'decompose', 'text'): '97508b86907076a2c6fc9cbf3e3d4dff835eb94ece109a454ea487d78d7fc11a 0',
    ('omega_gadget', 'decompose', 'json'): '34c5708717a56b08b46d60503fae1b1720ca5a7694636f2d4b9e2d67bbd0ea82 0',
    ('omega_gadget', 'ideals', 'text'): '68d31663bf827c139ac19b3d5b8fc792d7ed6f5efe8371da2822513b52e1c24f 0',
    ('omega_gadget', 'ideals', 'json'): '1eb8ef49acb4472e4d8ec1bf820d85d6b2007df5033f607f7de498f7af16f12c 0',
    ('omega_gadget', 'eval', 'text'): '04828d9b20794d895f651066cd206b1b648317f3b03f18b3927ec05aed37cc0c 0',
    ('omega_gadget', 'eval', 'json'): 'b733723e9ddc7349a66542378ace956cf375be5e4b6147711703060f5e751f26 0',
    ('single_loop', 'analyze', 'text'): '5eea795b3588382970f3a3135ac29a30721fb90eb7f0121d3249e59016ce52d8 0',
    ('single_loop', 'analyze', 'json'): 'f15a895bae45dd1659b54eba92b4764d208b1f9e3c5f45555de78c12330e5f71 0',
    ('single_loop', 'index', 'text'): '971a6652c04763ac0b8fd5d0d32f1b8c04948b2f489360a61a1b07de2f947f9c 0',
    ('single_loop', 'index', 'json'): 'fabde82c405913e11ae4303a4f5d68743b70e54ccee102b23abec96e1b7bc7cd 0',
    ('single_loop', 'witness', 'text'): 'd7a1673e047fd27fc2a3ce6b5d36e97d1e9facf986ec0b72870f779c7d9e762c 0',
    ('single_loop', 'witness', 'json'): 'f0516837bffada71cb266742a6a239cc19f35a294def7067df3c3ff59cc6c8ae 0',
    ('single_loop', 'check', 'text'): 'ce30d3168cf43c92e8f9f5b0e0bef7a9db91eacc6a9be1ee0d1fd5315bd08eb4 0',
    ('single_loop', 'check', 'json'): 'bfbbb3c0fe024e171bcf837459ee991143b5c96bba78d68061c2207e88253132 0',
    ('single_loop', 'decompose', 'text'): '98c18d421b92b3d98fe964561420284ae3ee0f7b16c9cfdace1cfacedfc39882 0',
    ('single_loop', 'decompose', 'json'): '779bec7b6bb8e4e1c9b771b56d09b08b064666b95b5350c3f345b2ff55d225fa 0',
    ('single_loop', 'ideals', 'text'): '03bdb2a3a27506434ecc719ed88af3316d0f34534184098d6560dbffc47ad7b2 0',
    ('single_loop', 'ideals', 'json'): '06748248930b63430ccf64c61eba8215e5b7f8542f5f861235723a692e7a2f48 0',
    ('single_loop', 'eval', 'text'): '242c7a268ee1a4798cf68543d19a0a1eaeda525074a95e6b21eb2b07085eda3f 0',
    ('single_loop', 'eval', 'json'): '1e93ea784ebbee3d3da04ad645143cf90c6d7390e94c2aa196f47feed335d5d7 0',
    ('two_loops', 'analyze', 'text'): '616266ea872c0cc16498939c0d823544d4fcfc79a49d760ff2b232a2bec8df2a 0',
    ('two_loops', 'analyze', 'json'): '7756fc161a21dd895f297ff9cbe435edf55f37d5f8c44037a747b5a440f21ecf 0',
    ('two_loops', 'index', 'text'): 'b2bd07b96d07e7bcdc1bd104a028e2a41bb3f684adee8548cc1d65bb0d29a3c0 0',
    ('two_loops', 'index', 'json'): '21a19087914701872873489071f66bd6ddec67e767b937b41d6320485f848578 0',
    ('two_loops', 'witness', 'text'): '406d4acde5e05837a62019dafd6535bf12bd9844ab52c5222ed7aa71333524db 0',
    ('two_loops', 'witness', 'json'): '6bf36344a4de60b23f05bc90b593ba2a806d3a88209220a1599badb7f95fb387 0',
    ('two_loops', 'check', 'text'): '519ddf70866ba89bc374a58c33c8e0ec75d601adb0c519fb18ddac73aff577e1 0',
    ('two_loops', 'check', 'json'): '050744f35dcd0b87719d28596e568b19aec616ffb00b0acebf28ee09fd24b35c 0',
    ('two_loops', 'decompose', 'text'): '46c896ae3d7446623a3e1d732c289b5631c07d2cd1dea990c641e451fa2ddadf 0',
    ('two_loops', 'decompose', 'json'): '5edfc98e77eab990ad4614ada59d0276eefcfd8fdd34385c36f4dd261d732029 0',
    ('two_loops', 'ideals', 'text'): '677182b3e7b3c27e0d9e0817177f597d40e84cc70c8c75a78f05260b472225f8 0',
    ('two_loops', 'ideals', 'json'): 'b5e972692ab5e0c5f2d12e22fcdfc0daf700a25373796db6ce6b111d249855e4 0',
    ('two_loops', 'eval', 'text'): 'e91d99f9b393fbb8e7265bbfee4e4c36458e2701f148fde69569dff5e1e117b7 0',
    ('two_loops', 'eval', 'json'): '511ffa031c376bd4777a8899edfc7d6a3a5a2694ce10de7c6c97158fc65ac6e9 0',
}


# The sampled check at the trial count of the bench's sampling workload.
TRIALS_COMMAND = ("check", "--trials", "300", "--seed", "7")


def _trials_cases():
    for name in NAMES:
        for fmt in ("text", "json"):
            yield name, fmt


def _trials_argv(name: str, fmt: str) -> list:
    cmd, *extra = TRIALS_COMMAND
    return [cmd, str(FIXTURES / f"{name}.graph"), *extra, "--format", fmt]


TRIALS_GOLDEN = {
    ('clock3', 'text'): '6bc16af826bed912c5844aa371d2a74168b4fd1219f53ae12a3bc927a6f60a01 0',
    ('clock3', 'json'): '74cd8fffbc6abd1e2fdd9c06e276a6b5598fcd373ea2ed2bd0f0c97832468ffc 0',
    ('clock5', 'text'): '4ddce6ed7c4d5ddf8c46f937dd09c2d0239c95788bac861a27fdde69ae3a6a6b 0',
    ('clock5', 'json'): 'eb650022b5830a667546abbb6faeefc8f5b04dd14ffefb60cf2d129b95371944 0',
    ('graph_f', 'text'): '62d3814edac179fabf5718019f25adb0c2d540bf47e3a1f0f3fa310f78a2c6a3 0',
    ('graph_f', 'json'): '8e55ab2678256160fba5ef030809527ac417bc2c4aa0c39398124ef3d1906a6c 0',
    ('inverse_clock3', 'text'): 'dd242d1802fc06f5ee5a1757b5767c4f18085e4b33064520e08701b3e5ccd550 0',
    ('inverse_clock3', 'json'): '8decb3aee3e11418d214d8bb14deb422c541e210ea08dec93d97668fd56bf9ff 0',
    ('line1', 'text'): 'a450b40a72c4286334e7c0b0b2a2b7893ca3d9af23a8a7e1b8eb5561055266aa 0',
    ('line1', 'json'): 'd43c712e1c6b36a6ce6c5b63dd59b9107303cca38199acc2dfecc22d1e36971d 0',
    ('line2', 'text'): 'ccd692d3b1ed0024d754466dbcdc9b8c3b1fde8dba62d98dd8b087224b1013d7 0',
    ('line2', 'json'): '5c587cb35db86de19bd8e7cfb36c747815f91fda164f952b456cda2157b65422 0',
    ('line3', 'text'): 'a374ea4a367f3a78b264d6a0e9b9881148ca9293d73e254e209ed504c9624bde 0',
    ('line3', 'json'): 'e156d24a561560c7718286a3a5893f8f0dc423caab40ba261d061e74bc40bc76 0',
    ('line4', 'text'): '4c4d5e3013d899e1ce8e75cc54a5e402049cb51a0e0560ad37c4fba72a29747a 0',
    ('line4', 'json'): 'e11324c0d096048b930a1ef20d8681ecfe2120f023f2928364d799bb04c3b320 0',
    ('line5', 'text'): 'da89bb237dadd72387daa2c2623d8ae697a2f85b60951f71ced19249026709a7 0',
    ('line5', 'json'): 'a7f22465c71536fcaa8092388064be5481ccf551f0ddb5a12347f748fd40ee0d 0',
    ('line6', 'text'): '72d635c8adfdfe3ad6281fcf51e5e1e2e6ac81f4427c176987a1eb053eabbe24 0',
    ('line6', 'json'): 'e20cd167b8744ec887d86957d1187b740823c39db08783599b1efeb1d4d1afa4 0',
    ('loop_with_tail', 'text'): 'e83271cedbc4bf9b610be0ad21925dd283df6629c98e8810a7f7d163a11ea94e 0',
    ('loop_with_tail', 'json'): '088ea3fe48aa69a1dc20af2d8aa9a083e426068ad9303436797a1d2aa64a1b72 0',
    ('omega_gadget', 'text'): 'e7fefdeccba320e5410b730d6c17e81c18be3fcbc371b8527e35538b588f3a30 0',
    ('omega_gadget', 'json'): 'f90c31c7f490420e49dcf0f348120bc7993181f08f9cc115d946f06c2fe5b3a3 0',
    ('single_loop', 'text'): '5aa0606779ff141f6fe2c80f2cc177ad33f1b76d6adc86d1e0f05d6bd49081a2 0',
    ('single_loop', 'json'): '29b8447a65a59b265bc61ac418dd59763fdf452405aceec60c9a474ca622c500 0',
    ('two_loops', 'text'): '519ddf70866ba89bc374a58c33c8e0ec75d601adb0c519fb18ddac73aff577e1 0',
    ('two_loops', 'json'): '050744f35dcd0b87719d28596e568b19aec616ffb00b0acebf28ee09fd24b35c 0',
}


# Graphs whose witness legs run to 60 edges, beyond the fixtures' 6.
LONG_GRAPHS = {
    "tailed_cycle_40_20": lambda: tailed_cycle(40, 20),
    "line60": lambda: line(60),
    "doubled_line5": lambda: doubled_line(5),
}
LONG_COMMANDS = {
    "witness": ("witness",),
    "index": ("index",),
    "check": ("check", "--trials", "5", "--seed", "0"),
}


def _long_cases():
    for name in LONG_GRAPHS:
        for command in LONG_COMMANDS:
            for fmt in ("text", "json"):
                yield name, command, fmt


def _long_argv(paths: dict, name: str, command: str, fmt: str) -> list:
    cmd, *extra = LONG_COMMANDS[command]
    return [cmd, str(paths[name]), *extra, "--format", fmt]

LONG_GOLDEN = {
    ('tailed_cycle_40_20', 'witness', 'text'): '2e86a6ee969c4069466349569694dae93f19f2e1aa834592162a47f1c8418480 0',
    ('tailed_cycle_40_20', 'witness', 'json'): '85f28c850c58383aa12a6d3bec3110940b27e53829f255df07d25b971314807a 0',
    ('tailed_cycle_40_20', 'index', 'text'): '0175c4d77bd2af83aec6a928dd8ae1590289b0a7c6c714aaedb42c5e7f03f5c9 0',
    ('tailed_cycle_40_20', 'index', 'json'): '9fa2649d9c3b6ff3e0595c87c349002cc826c7dd99efe4e8ceca2808b0296ae9 0',
    ('tailed_cycle_40_20', 'check', 'text'): '2fe41c15d5c205cfa59435e92d28c4bbadeb5c4c99d43aa3eb7843acde8b010b 0',
    ('tailed_cycle_40_20', 'check', 'json'): 'df738ab0701458522a2f07464e5ea8cf942a6ecd4783947ca2afa0008a84c92d 0',
    ('line60', 'witness', 'text'): '42eff73c29d1587cdc355bf375e2b601ef7cd4dc594d243c9777320437cbe276 0',
    ('line60', 'witness', 'json'): '5948c7387b6e4d583ec16cce8f3c123eb1701a8e79f8cc66b0bb0fdd02a31c78 0',
    ('line60', 'index', 'text'): 'fbf9c88c2e25d92fa13be47cdc9afe48073be6745eb934cc8a50696bc83e8ffe 0',
    ('line60', 'index', 'json'): '98374f422ac6849af8a31169532f6d6a4990784986fc0575e568fa303641102f 0',
    ('line60', 'check', 'text'): '341451b5ce9ddb369a22dd92ee9e3449632b69c1d63c7f79f5124b8fdf8703bf 0',
    ('line60', 'check', 'json'): 'd5af3417e9d2e3a191a9ce6ece3fcbeebe6cc853bc4b624ab08a24e4774220a1 0',
    ('doubled_line5', 'witness', 'text'): '201ac0b7f953de44e57426e939544664281b8c2ede59239aa1a8c9190d5a938c 0',
    ('doubled_line5', 'witness', 'json'): 'd07be3efed4d67731abe13e1d9240f2889f4ea79eac9e042a3cb4e1707726c49 0',
    ('doubled_line5', 'index', 'text'): 'df30a9f2e690f89efca67fcc93dcb9ffbc2ac9beeaf2339ed65bd43164746aef 0',
    ('doubled_line5', 'index', 'json'): '0df8a56bce01de3143f02f9424c0d02db826e9c36af534a0e4e6f64cd8199298 0',
    ('doubled_line5', 'check', 'text'): 'ba7fb0af5e006678caac1c11c54af751fbed31321a760a116b626e57db8d9d5d 0',
    ('doubled_line5', 'check', 'json'): 'f0cf710065d69192483c2a79910e6575af84ec9519d943d796ef730a5a988ea0 0',
}


# JSON verdicts on the payload shapes the emitter and the component pass
# have fast paths for: 1200 sinks, witness legs up to 199 edges, and 2047
# legs of up to 10 parallel-edge choices.
WIDE_GRAPHS = {
    "clock1200": lambda: clock(1200),
    "line200": lambda: line(200),
    "doubled_line11": lambda: doubled_line(11),
}

WIDE_COMMANDS = ("index", "analyze", "decompose")


def _wide_cases():
    for name in WIDE_GRAPHS:
        for command in WIDE_COMMANDS:
            yield name, command


def _wide_argv(paths: dict, name: str, command: str) -> list:
    return [command, str(paths[name]), "--format", "json"]


WIDE_GOLDEN = {
    ('clock1200', 'index'): '893e46ea8f26a5fadf66a0273c425a0c88acfb1c94ed7e0af0ddb9b0bbfc0e33 0',
    ('clock1200', 'analyze'): '8cc8400db11e69a75dab9e4c9b81291afd11f56263d145b6c7c9acb440ff1b99 0',
    ('clock1200', 'decompose'): 'd441a4769f1b3d97dbc4b810f2b269d175ba439b649f08b81e2c819c197b34d8 0',
    ('line200', 'index'): '2ab8c92072da18b17562753ef55197b94c3de5941820e7c3efe758099e927575 0',
    ('line200', 'analyze'): 'ce597ab24a5708e4c31d68125236f3f3e2ded72afa7b93d84dde7a53302ab5be 0',
    ('line200', 'decompose'): '122ccadaff3c314d454889ca94d86493ba689be77f109850b01b707f13406370 0',
    ('doubled_line11', 'index'): '1bf4e553f8e9bbd58c90092f95ca71979af2dd4439c010e0705ff739a0da02b8 0',
    ('doubled_line11', 'analyze'): 'e3e634c225e07c69f6fe8851b5ee90b45eac3d61c9b62fbce0b6df351398207f 0',
    ('doubled_line11', 'decompose'): 'c0ef4775f95e3a9366df3b64fe5185839c08973f213928545dbf69cefb2b4698 0',
}


def _graph_files(directory: pathlib.Path, graphs: dict) -> dict:
    """Write each built graph to ``directory``; the path of each by name."""
    paths = {}
    for name, build in graphs.items():
        paths[name] = directory / f"{name}.graph"
        paths[name].write_text(canonical_document(build()))
    return paths


@pytest.fixture(scope="module")
def long_graph_files(tmp_path_factory):
    return _graph_files(tmp_path_factory.mktemp("built"), LONG_GRAPHS)


@pytest.fixture(scope="module")
def wide_graph_files(tmp_path_factory):
    return _graph_files(tmp_path_factory.mktemp("built"), WIDE_GRAPHS)


@pytest.mark.parametrize("name,command", list(WIDE_GOLDEN), ids=str)
def test_wide_json_output_bytes_are_golden(name, command, wide_graph_files):
    assert _digest(_wide_argv(wide_graph_files, name, command)) == \
        WIDE_GOLDEN[name, command], f"{command} --format json on {name}"


def test_every_wide_case_has_a_digest():
    assert set(WIDE_GOLDEN) == set(_wide_cases())


@pytest.mark.parametrize("name,command,fmt", list(LONG_GOLDEN), ids=str)
def test_long_leg_output_bytes_are_golden(name, command, fmt, long_graph_files):
    assert _digest(_long_argv(long_graph_files, name, command, fmt)) == \
        LONG_GOLDEN[name, command, fmt], f"{command} --format {fmt} on {name}"


def test_every_long_case_has_a_digest():
    assert set(LONG_GOLDEN) == set(_long_cases())


@pytest.mark.parametrize("name,fmt", list(TRIALS_GOLDEN), ids=str)
def test_long_sampled_check_bytes_are_golden(name, fmt):
    assert _digest(_trials_argv(name, fmt)) == TRIALS_GOLDEN[name, fmt], \
        f"{' '.join(TRIALS_COMMAND)} --format {fmt} on fixture {name}"


def test_every_fixture_has_a_trials_digest():
    assert set(TRIALS_GOLDEN) == set(_trials_cases())


@pytest.mark.parametrize("name,command,fmt", list(_cases()),
                         ids=str)
def test_output_bytes_are_golden(name, command, fmt):
    assert _digest(_argv(name, command, fmt)) == GOLDEN[name, command, fmt], \
        f"{command} --format {fmt} on fixture {name}"


def test_every_case_has_a_digest():
    assert set(GOLDEN) == set(_cases())


def _print_table(title: str, digests) -> None:
    print(f"{title} = {{")
    for case, digest in digests:
        print(f"    {case!r}: {digest!r},")
    print("}\n")


if __name__ == "__main__":
    _print_table("GOLDEN", ((case, _digest(_argv(*case))) for case in _cases()))
    _print_table("TRIALS_GOLDEN", ((case, _digest(_trials_argv(*case)))
                                   for case in _trials_cases()))
    with tempfile.TemporaryDirectory() as built:
        long_paths = _graph_files(pathlib.Path(built), LONG_GRAPHS)
        _print_table("LONG_GOLDEN", ((case, _digest(_long_argv(long_paths, *case)))
                                     for case in _long_cases()))
        wide_paths = _graph_files(pathlib.Path(built), WIDE_GRAPHS)
        _print_table("WIDE_GOLDEN", ((case, _digest(_wide_argv(wide_paths, *case)))
                                     for case in _wide_cases()))
